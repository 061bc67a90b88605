// The v3 store file framing shared by the heap store (sketch_store) and
// the mmap store (mmap_store): the magic, the fixed header, the FNV-1a
// checksum, the page-alignment rule, and the one parser that validates a
// file image's header and segment framing. The authoritative layout
// description lives in serve/sketch_store.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "serve/sketch_store.hpp"

namespace dsketch {
namespace store_format {

/// Throws StoreCorruptionError(kind) with the store's message prefix.
[[noreturn]] void fail(StoreError kind, const std::string& what);

constexpr char kMagic[8] = {'D', 'S', 'K', 'S', 'T', 'O', 'R', '3'};
constexpr std::uint32_t kVersion = 3;
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

inline std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t size) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

inline std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t x = 0;
  for (int i = 0; i < 8; ++i) x |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return x;
}

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
    return load_u64(offsets + 8 * static_cast<std::size_t>(u));
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
/// header checksum, version, scheme tag — and walks its segment framing:
/// meta words, the page-aligned byte-offset tables (monotone, [0] == 0,
/// [n] == blob_bytes), and that every section fits. No record byte is
/// read. Throws StoreCorruptionError with a typed diagnosis. In kSalvage
/// mode blobs may be short and a graceful store keeps the levels before
/// the first broken framing.
File parse(const std::uint8_t* data, std::size_t size, Parse mode);

}  // namespace store_format
}  // namespace dsketch
