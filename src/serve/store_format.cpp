#include "serve/store_format.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "core/config.hpp"

namespace dsketch {
namespace store_format {

void fail(StoreError kind, const std::string& what) {
  throw StoreCorruptionError(kind, "sketch store: " + what);
}

namespace {

std::uint32_t load_u32(const std::uint8_t* p) {
  std::uint32_t x = 0;
  for (int i = 0; i < 4; ++i) x |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return x;
}

StoreHeader parse_header(const std::uint8_t* data, std::size_t size) {
  if (size < 8 || std::memcmp(data, kMagic, 7) != 0) {
    fail(StoreError::kBadMagic, "bad magic");
  }
  if (data[7] == '1' || data[7] == '2') {
    fail(StoreError::kUnsupportedVersion,
         "v1/v2 stores are not supported; rebuild the store");
  }
  if (data[7] != kMagic[7]) fail(StoreError::kBadMagic, "bad magic");
  if (size < kPayloadStart) {
    fail(StoreError::kTruncatedHeader, "truncated header");
  }
  const std::uint8_t* h = data + 8;
  if (fnv1a64(h, kHeaderBytes) != load_u64(h + kHeaderBytes)) {
    fail(StoreError::kHeaderChecksum, "header checksum mismatch");
  }
  const std::uint32_t version = load_u32(h);
  if (version != kVersion) {
    fail(StoreError::kUnsupportedVersion,
         "unsupported version " + std::to_string(version));
  }
  StoreHeader out;
  out.scheme_raw = load_u32(h + 4);
  if (out.scheme_raw > static_cast<std::uint32_t>(Scheme::kGraceful)) {
    fail(StoreError::kUnknownScheme,
         "unknown scheme tag " + std::to_string(out.scheme_raw));
  }
  out.n = load_u32(h + 8);
  out.k = load_u32(h + 12);
  out.segment_count = load_u32(h + 16);
  out.epsilon_known = (load_u32(h + 20) & kFlagEpsilonKnown) != 0;
  const std::uint64_t eps_bits = load_u64(h + 24);
  std::memcpy(&out.epsilon, &eps_bits, sizeof(out.epsilon));
  out.payload_size = load_u64(h + 32);
  out.checksum = load_u64(h + 40);
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
    return load_u64(payload + pos - 8);
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
      if (prev != blob_bytes) {
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
