// The v4 store file framing: the magic, the fixed header, the FNV-1a
// checksum, the page-alignment rule, the one parser that validates a file
// image's header and segment framing, and the image itself — a file's
// bytes in one heap buffer or one read-only mapping. The authoritative
// layout description lives in serve/sketch_store.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "serve/sketch_store.hpp"
#include "sketch/record_slab.hpp"

namespace dsketch {
namespace store_format {

/// Throws StoreCorruptionError(kind) with the store's message prefix.
[[noreturn]] void fail(StoreError kind, const std::string& what);

constexpr char kMagic[8] = {'D', 'S', 'K', 'S', 'T', 'O', 'R', '4'};
constexpr std::uint32_t kVersion = 4;
constexpr std::uint32_t kFlagEpsilonKnown = 1;  // header flags word, bit 0
constexpr std::size_t kHeaderBytes = 48;  // after the magic, pre-checksum
/// The payload starts here: 8 magic + 48 header + 8 header checksum.
constexpr std::size_t kPayloadStart = 64;
/// Offset tables and blobs are zero-padded to this file alignment.
constexpr std::size_t kPageBytes = 4096;

/// Pad needed after `payload_pos` payload bytes to reach the next
/// page-aligned *file* position.
inline std::size_t page_pad(std::size_t payload_pos) {
  return (kPageBytes - (kPayloadStart + payload_pos) % kPageBytes) %
         kPageBytes;
}

/// FNV-1a 64, continued from `hash` (streaming: hash pieces in order).
inline std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t size,
                             std::uint64_t hash = 14695981039346656037ULL) {
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// One store file's bytes: a heap buffer or a read-only mapping. Loaded
/// and mapped stores serve straight from it; their record slabs share it.
class Image {
 public:
  /// Reads one store's file image from `in` into one heap buffer: the
  /// 64-byte header, then at most the payload size it declares, in
  /// bounded chunks — a corrupted size fails as "truncated" in parse, not
  /// as a giant allocation. 8 zero bytes past size() are readable.
  static std::shared_ptr<const Image> read(std::istream& in);
  static std::shared_ptr<const Image> read_file(const std::string& path);
  /// Maps the file at `path` read-only.
  static std::shared_ptr<const Image> map(const std::string& path);

  Image() = default;
  ~Image();
  Image(const Image&) = delete;
  Image& operator=(const Image&) = delete;

  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return size_; }
  /// Releases a mapping's resident pages (MADV_DONTNEED), so the next
  /// touch faults them back in; a no-op on a heap buffer.
  void drop_pages() const;

 private:
  std::vector<std::uint8_t> heap_;
  void* map_ = nullptr;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

/// The decoded fixed header.
struct StoreHeader {
  std::uint32_t scheme_raw = 0;
  std::uint32_t n = 0;
  std::uint32_t k = 0;
  std::uint32_t segment_count = 0;
  bool epsilon_known = false;
  double epsilon = 0.0;
  std::uint64_t payload_size = 0;
  std::uint64_t checksum = 0;
};

/// One segment's framing, pointing into the parsed file image.
struct Segment {
  std::vector<std::uint64_t> meta;  ///< slack: [net size, net ids...]
  const std::uint8_t* offsets = nullptr;  ///< n+1 little-endian u64s
  const std::uint8_t* blob = nullptr;
  /// Blob bytes in the image: the declared size, less what a truncated
  /// file lost (kSalvage only).
  std::uint64_t blob_bytes = 0;

  /// Byte offset of node u's record in the blob (u in [0, n]).
  std::uint64_t offset(NodeId u) const {
    return load_le64(offsets + 8 * static_cast<std::size_t>(u));
  }
};

struct File {
  StoreHeader header;
  std::vector<Segment> segments;
};

enum class Parse {
  kStrict,    ///< every section present; payload checksum not read
  kVerified,  ///< kStrict plus the payload checksum
  kSalvage,   ///< header intact, payload may be short or corrupt
};

/// Validates the header of the file image [data, data + size) — magic,
/// header checksum, version, scheme tag, a segment count that fits the
/// scheme — and walks its segment framing: meta words, the page-aligned
/// byte-offset tables (monotone, [0] == 0, [n] + 8 == blob_bytes: every
/// blob ends in the 8-byte record tail), and that every section fits. No
/// record byte is read. Throws StoreCorruptionError with a typed
/// diagnosis. In kSalvage mode blobs may be short and a graceful store
/// keeps the levels before the first broken framing.
File parse(const std::uint8_t* data, std::size_t size, Parse mode);

}  // namespace store_format
}  // namespace dsketch
