#include "serve/mmap_store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>

#include "core/sketch_payload.hpp"
#include "obs/trace.hpp"
#include "serve/label_codec.hpp"
#include "util/assert.hpp"

namespace dsketch {
namespace {

namespace sf = store_format;
using sf::fail;

// Query scratch is thread-local so query() stays allocation-free after
// warmup and safe for concurrent callers (each thread owns its buffers).
struct Scratch {
  DecodedRecord u;
  DecodedRecord v;
};

Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

}  // namespace

std::unique_ptr<MmapSketchStore> MmapSketchStore::open(const std::string& path,
                                                       bool verify_checksum) {
  const obs::Span span("store_mmap_open");
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail(StoreError::kIo, "cannot open for read: " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    fail(StoreError::kIo, "cannot stat: " + path);
  }
  const auto len = static_cast<std::size_t>(st.st_size);
  if (len < sf::kPayloadStart) {
    ::close(fd);
    fail(StoreError::kTruncatedHeader, "truncated header");
  }
  void* base = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) fail(StoreError::kIo, "mmap failed: " + path);

  std::unique_ptr<MmapSketchStore> store(new MmapSketchStore());
  store->map_ = base;
  store->map_len_ = len;
  // The destructor unmaps, so from here a parse failure cleans up by
  // letting `store` die.
  sf::File file = sf::parse(
      static_cast<const std::uint8_t*>(base), len,
      verify_checksum ? sf::Parse::kVerified : sf::Parse::kStrict);
  store->scheme_ = static_cast<Scheme>(file.header.scheme_raw);
  store->n_ = file.header.n;
  store->k_ = file.header.k;
  store->epsilon_ = file.header.epsilon;
  store->epsilon_known_ = file.header.epsilon_known;
  store->segments_ = std::move(file.segments);
  return store;
}

MmapSketchStore::~MmapSketchStore() {
  if (map_ != nullptr) ::munmap(map_, map_len_);
}

bool MmapSketchStore::decode(std::size_t s, NodeId u,
                             DecodedRecord& out) const {
  const sf::Segment& seg = segments_[s];
  const std::size_t slack_net =
      scheme_ == Scheme::kSlack ? static_cast<std::size_t>(seg.meta[0]) : 0;
  return decode_v3_record(scheme_, seg.blob + seg.offset(u),
                          seg.blob + seg.offset(u + 1), u, slack_net, out);
}

Dist MmapSketchStore::query(NodeId u, NodeId v) const {
  DS_CHECK(u < n_ && v < n_);
  if (u == v) return 0;
  Scratch& s = scratch();
  Dist best = kInfDist;
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    // Start v's record on its way from memory before u's decode walks
    // its own record, so the two misses overlap.
    __builtin_prefetch(segments_[i].blob + segments_[i].offset(v));
    if (!decode(i, u, s.u) || !decode(i, v, s.v)) continue;
    switch (scheme_) {
      case Scheme::kThorupZwick:
        return tz_query(s.u.label.view(), s.v.label.view());
      case Scheme::kSlack:
        return slack_query(s.u.row.data(), s.v.row.data(), s.u.row.size());
      case Scheme::kCdg:
      case Scheme::kGraceful:
        best = std::min(best, cdg_query(s.u.cdg(), s.v.cdg()));
        break;
    }
  }
  return best;
}

std::size_t MmapSketchStore::size_words(NodeId u) const {
  DS_CHECK(u < n_);
  DecodedRecord& rec = scratch().u;
  std::size_t words = 0;
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    if (!decode(i, u, rec)) continue;
    switch (scheme_) {
      case Scheme::kThorupZwick:
        words += rec.label.size_words();
        break;
      case Scheme::kSlack:
        words += 2 * rec.row.size();
        break;
      case Scheme::kCdg:
      case Scheme::kGraceful:
        words += 2 + rec.label.size_words();
        break;
    }
  }
  return words;
}

std::size_t MmapSketchStore::encoded_bytes_for(NodeId u) const {
  DS_CHECK(u < n_);
  std::size_t bytes = 0;
  for (const sf::Segment& seg : segments_) {
    bytes += static_cast<std::size_t>(seg.offset(u + 1) - seg.offset(u));
  }
  return bytes;
}

std::string MmapSketchStore::scheme() const { return scheme_name(scheme_); }

std::string MmapSketchStore::guarantee() const {
  return sketch_guarantee(scheme_, k_, epsilon_);
}

Capabilities MmapSketchStore::capabilities() const {
  Capabilities caps = sketch_capabilities(scheme_, k_);
  caps.build_cost_available = false;
  // No save path: the mapped file IS the persistent form; converting
  // back to heap (SketchStore::load_file) is the write-capable route.
  caps.supports_save = false;
  return caps;
}

void MmapSketchStore::drop_pages() const {
  if (map_ != nullptr) ::madvise(map_, map_len_, MADV_DONTNEED);
}

}  // namespace dsketch
