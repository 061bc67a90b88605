#include "serve/store_format.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <string>

#include "core/config.hpp"

namespace dsketch {
namespace store_format {

void fail(StoreError kind, const std::string& what) {
  throw StoreCorruptionError(kind, "sketch store: " + what);
}

// ---- images ----------------------------------------------------------------

std::shared_ptr<const Image> Image::read(std::istream& in) {
  auto image = std::make_shared<Image>();
  std::vector<std::uint8_t>& bytes = image->heap_;
  bytes.resize(kPayloadStart);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  bytes.resize(static_cast<std::size_t>(in.gcount()));
  if (bytes.size() == kPayloadStart) {
    const std::uint64_t payload_size = load_le64(bytes.data() + 40);
    constexpr std::uint64_t kReadChunk = 1 << 24;
    while (bytes.size() - kPayloadStart < payload_size) {
      const std::uint64_t want = std::min(
          kReadChunk, payload_size - (bytes.size() - kPayloadStart));
      const std::size_t old_size = bytes.size();
      bytes.resize(old_size + static_cast<std::size_t>(want));
      in.read(reinterpret_cast<char*>(bytes.data() + old_size),
              static_cast<std::streamsize>(want));
      bytes.resize(old_size + static_cast<std::size_t>(in.gcount()));
      if (static_cast<std::uint64_t>(in.gcount()) < want) break;
    }
  }
  image->size_ = bytes.size();
  // Readers may load 8 bytes at any byte of the image.
  bytes.resize(bytes.size() + kRecordTail, 0);
  image->data_ = bytes.data();
  return image;
}

std::shared_ptr<const Image> Image::read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail(StoreError::kIo, "cannot open for read: " + path);
  return read(in);
}

std::shared_ptr<const Image> Image::map(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail(StoreError::kIo, "cannot open for read: " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    fail(StoreError::kIo, "cannot stat: " + path);
  }
  const auto len = static_cast<std::size_t>(st.st_size);
  if (len < kPayloadStart) {
    ::close(fd);
    fail(StoreError::kTruncatedHeader, "truncated header");
  }
  void* base = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) fail(StoreError::kIo, "mmap failed: " + path);
  auto image = std::make_shared<Image>();
  image->map_ = base;
  image->data_ = static_cast<const std::uint8_t*>(base);
  image->size_ = len;
  return image;
}

Image::~Image() {
  if (map_ != nullptr) ::munmap(map_, size_);
}

void Image::drop_pages() const {
  if (map_ != nullptr) ::madvise(map_, size_, MADV_DONTNEED);
}

namespace {

StoreHeader parse_header(const std::uint8_t* data, std::size_t size) {
  if (size < 8 || std::memcmp(data, kMagic, 7) != 0) {
    fail(StoreError::kBadMagic, "bad magic");
  }
  if (data[7] >= '1' && data[7] < kMagic[7]) {
    fail(StoreError::kUnsupportedVersion,
         "v1/v2/v3 stores are not supported; rebuild the store");
  }
  if (data[7] != kMagic[7]) fail(StoreError::kBadMagic, "bad magic");
  if (size < kPayloadStart) {
    fail(StoreError::kTruncatedHeader, "truncated header");
  }
  const std::uint8_t* h = data + 8;
  if (fnv1a64(h, kHeaderBytes) != load_le64(h + kHeaderBytes)) {
    fail(StoreError::kHeaderChecksum, "header checksum mismatch");
  }
  const std::uint32_t version = load_le32(h);
  if (version != kVersion) {
    fail(StoreError::kUnsupportedVersion,
         "unsupported version " + std::to_string(version));
  }
  StoreHeader out;
  out.scheme_raw = load_le32(h + 4);
  if (out.scheme_raw > static_cast<std::uint32_t>(Scheme::kGraceful)) {
    fail(StoreError::kUnknownScheme,
         "unknown scheme tag " + std::to_string(out.scheme_raw));
  }
  out.n = load_le32(h + 8);
  out.k = load_le32(h + 12);
  out.segment_count = load_le32(h + 16);
  // One segment per graceful level; every other scheme has exactly one.
  if (out.segment_count != 1 &&
      out.scheme_raw != static_cast<std::uint32_t>(Scheme::kGraceful)) {
    fail(StoreError::kStructure,
         "segment count " + std::to_string(out.segment_count) +
             " does not fit the scheme");
  }
  out.epsilon_known = (load_le32(h + 20) & kFlagEpsilonKnown) != 0;
  const std::uint64_t eps_bits = load_le64(h + 24);
  std::memcpy(&out.epsilon, &eps_bits, sizeof(out.epsilon));
  out.payload_size = load_le64(h + 32);
  out.checksum = load_le64(h + 40);
  return out;
}

}  // namespace

File parse(const std::uint8_t* data, std::size_t size, Parse mode) {
  File file;
  const StoreHeader& hdr = file.header = parse_header(data, size);
  const bool salvage = mode == Parse::kSalvage;
  const std::uint8_t* payload = data + kPayloadStart;
  std::uint64_t end = hdr.payload_size;
  if (size - kPayloadStart < end) {
    if (!salvage) fail(StoreError::kTruncatedPayload, "truncated payload");
    end = size - kPayloadStart;
  }
  if (mode == Parse::kVerified &&
      fnv1a64(payload, hdr.payload_size) != hdr.checksum) {
    fail(StoreError::kPayloadChecksum, "checksum mismatch");
  }

  std::uint64_t pos = 0;
  const auto left = [&] { return pos < end ? end - pos : 0; };
  const auto need = [&](std::uint64_t bytes) {
    if (left() < bytes) {
      fail(StoreError::kTruncatedPayload, "truncated payload");
    }
  };
  const auto u64 = [&] {
    need(8);
    pos += 8;
    return load_le64(payload + pos - 8);
  };
  const auto scheme = static_cast<Scheme>(hdr.scheme_raw);
  for (std::uint32_t s = 0; s < hdr.segment_count; ++s) {
    Segment seg;
    std::uint64_t blob_bytes = 0;
    try {
      const std::uint64_t meta_count = u64();
      if (meta_count > left() / 8) {
        fail(StoreError::kStructure, "corrupt meta count");
      }
      for (std::uint64_t i = 0; i < meta_count; ++i) seg.meta.push_back(u64());
      if (scheme == Scheme::kSlack) {
        if (seg.meta.empty() || seg.meta[0] + 1 != seg.meta.size()) {
          fail(StoreError::kStructure, "slack net meta size mismatch");
        }
      } else if (!seg.meta.empty()) {
        fail(StoreError::kStructure, "unexpected segment meta");
      }
      blob_bytes = u64();
      pos += page_pad(pos);
      const std::uint64_t table = 8 * (static_cast<std::uint64_t>(hdr.n) + 1);
      need(table);
      seg.offsets = payload + pos;
      std::uint64_t prev = seg.offset(0);
      if (prev != 0) fail(StoreError::kStructure, "blob offset mismatch");
      for (NodeId u = 1; u <= hdr.n; ++u) {
        const std::uint64_t o = seg.offset(u);
        if (o < prev) fail(StoreError::kStructure, "offsets not monotone");
        prev = o;
      }
      if (prev > blob_bytes || blob_bytes - prev != kRecordTail) {
        fail(StoreError::kStructure, "blob offset mismatch");
      }
      pos += table;
      pos += page_pad(pos);
    } catch (const StoreCorruptionError&) {
      // This segment's framing is gone. Extra graceful levels are
      // redundant approximations, so keeping the earlier ones is sound;
      // for single-segment schemes nothing remains to serve.
      if (salvage && scheme == Scheme::kGraceful && !file.segments.empty()) {
        break;
      }
      throw;
    }
    if (!salvage) need(blob_bytes);
    seg.blob = payload + std::min(pos, end);
    seg.blob_bytes = std::min(blob_bytes, left());
    pos = blob_bytes > left() ? end : pos + blob_bytes;
    pos += page_pad(pos);
    if (!salvage && pos > end) {
      fail(StoreError::kTruncatedPayload, "truncated payload");
    }
    file.segments.push_back(std::move(seg));
  }
  if (!salvage && pos != hdr.payload_size) {
    fail(StoreError::kStructure, "trailing payload bytes");
  }
  if (file.segments.empty()) fail(StoreError::kStructure, "no segments");
  return file;
}

}  // namespace store_format
}  // namespace dsketch
