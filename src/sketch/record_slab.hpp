// Per-node packed records — the one frozen form of every sketch family —
// and the bit-level reader and writer they are packed with.
//
// A RecordSlab holds n byte records back to back in one blob plus an
// (n+1)-entry byte-offset table: record u is blob[offsets[u],
// offsets[u+1]). The blob always ends in kRecordTail zero bytes past the
// last record, so a reader may load 8 bytes at any byte of any record
// (read_bits does). Offset table and blob are exactly a store segment's
// (serve/sketch_store.hpp). A slab is immutable, and one shared owner
// holds its bytes: a store file's image, or the two vectors a build or a
// RecordSlabWriter handed over whole. Copying a slab shares that owner,
// so a copy never dangles, costs no byte, and serving a file needs no
// decode step.
//
// Fields inside a record are bit-packed little-endian at widths computed
// from the record's own data — frame-of-reference packing (Lemire &
// Boytsov, Software: Practice and Experience 2015) — so a record is small
// and can still be binary-searched where it lies.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace dsketch {

static_assert(std::endian::native == std::endian::little,
              "packed records are read with little-endian word loads");

/// Zero bytes after the last record of every blob.
constexpr std::size_t kRecordTail = 8;

inline std::uint32_t load_le32(const std::uint8_t* p) {
  std::uint32_t x;
  std::memcpy(&x, p, sizeof(x));
  return x;
}
inline std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t x;
  std::memcpy(&x, p, sizeof(x));
  return x;
}
inline void store_le32(std::uint8_t* p, std::uint32_t x) {
  std::memcpy(p, &x, sizeof(x));
}
inline void store_le64(std::uint8_t* p, std::uint64_t x) {
  std::memcpy(p, &x, sizeof(x));
}

/// The low `width` bits set (width in [0, 64]).
inline std::uint64_t low_mask(unsigned width) {
  return ((std::uint64_t{1} << (width & 63)) - 1) |
         (std::uint64_t{0} - (width >> 6));
}

/// Bytes holding `fields` fields of `width` bits.
inline std::uint64_t packed_bytes(std::uint64_t fields, unsigned width) {
  return (fields * width + 7) / 8;
}

/// The field at bit `pos` of `base` whose width (<= 57) has `mask` =
/// low_mask(width): one 8-byte load.
inline std::uint64_t read_narrow(const std::uint8_t* base, std::uint64_t pos,
                                 std::uint64_t mask) {
  return (load_le64(base + (pos >> 3)) >> (pos & 7)) & mask;
}

/// The field of `width` <= 64 bits (`mask` = low_mask(width)) at bit `pos`
/// of `base`. Reads 8 bytes from the field's first byte, and the ninth
/// only when the field spans it.
inline std::uint64_t read_bits(const std::uint8_t* base, std::uint64_t pos,
                               unsigned width, std::uint64_t mask) {
  const std::uint8_t* p = base + (pos >> 3);
  const unsigned shift = pos & 7;
  std::uint64_t x = load_le64(p) >> shift;
  if (shift + width > 64) x |= std::uint64_t{p[8]} << (64 - shift);
  return x & mask;
}

/// Sequential writer of one byte-aligned column of packed fields: fills
/// a 64-bit word and stores it whole, so packing costs a store per word,
/// not per bit.
class BitWriter {
 public:
  explicit BitWriter(std::uint8_t* out) : out_(out) {}

  void put(std::uint64_t value, unsigned width) {
    acc_ |= value << fill_;
    if (fill_ + width < 64) {
      fill_ += width;
      return;
    }
    store_le64(out_, acc_);
    out_ += 8;
    acc_ = fill_ == 0 ? 0 : value >> (64 - fill_);
    fill_ = fill_ + width - 64;
  }
  /// Writes the partial last word; returns one past the column's last byte.
  std::uint8_t* finish() {
    const unsigned bytes = (fill_ + 7) / 8;
    std::memcpy(out_, &acc_, bytes);
    return out_ + bytes;
  }

 private:
  std::uint8_t* out_;
  std::uint64_t acc_ = 0;
  unsigned fill_ = 0;
};

/// n variable-size byte records behind an (n+1)-entry offset table; see
/// the file comment. A slab never changes: its records were each written
/// once, either into the place a prefix sum of their sizes gave them (a
/// parallel pack) or one after another by a RecordSlabWriter. Copies
/// share the bytes and keep them alive.
class RecordSlab {
 public:
  /// No records.
  RecordSlab() = default;
  /// Takes records laid out by their sizes: `offsets` holds n+1 byte
  /// offsets from 0 (one prefix sum), `blob` every record in its place,
  /// each written once, followed by kRecordTail zero bytes.
  RecordSlab(std::vector<std::uint64_t> offsets,
             std::vector<std::uint8_t> blob);
  /// Serves a store segment's `n` records: `offsets` holds n+1
  /// little-endian u64s, `blob` the records followed by kRecordTail
  /// bytes. `keep` owns that memory; the slab shares it.
  RecordSlab(std::shared_ptr<const void> keep, const std::uint8_t* offsets,
             const std::uint8_t* blob, NodeId n)
      : n_(n), keep_(std::move(keep)), offsets_(offsets), blob_(blob) {}

  NodeId num_records() const { return n_; }

  std::uint64_t offset(NodeId u) const {
    return load_le64(offsets_ + 8 * static_cast<std::size_t>(u));
  }
  /// Record u's first byte; 8 bytes past any of its bytes are readable.
  const std::uint8_t* record(NodeId u) const { return blob_ + offset(u); }
  std::size_t record_size(NodeId u) const {
    return static_cast<std::size_t>(offset(u + 1) - offset(u));
  }

  /// Hints record u's offset-table entry into the cache (u <= n).
  void prefetch_offset(NodeId u) const {
    __builtin_prefetch(offsets_ + 8 * static_cast<std::size_t>(u));
  }
  /// Hints the first two cache lines of record u into the cache; reads
  /// its offset, so u must be a record of this slab.
  void prefetch_record(NodeId u) const {
    const std::uint8_t* rec = record(u);
    __builtin_prefetch(rec);
    __builtin_prefetch(rec + 64);
  }

  /// The offset table as a store segment holds it: 8(n+1) bytes.
  std::span<const std::uint8_t> offset_table() const {
    return {offsets_, 8 * (static_cast<std::size_t>(n_) + 1)};
  }
  /// The records and their tail.
  std::span<const std::uint8_t> blob() const {
    return {blob_, static_cast<std::size_t>(offset(n_)) + kRecordTail};
  }

 private:
  /// The empty slab's offset table (one zero offset) and blob (the tail).
  static constexpr std::uint8_t kNoRecords[kRecordTail] = {};

  NodeId n_ = 0;
  std::shared_ptr<const void> keep_;  ///< their owner; null for kNoRecords
  const std::uint8_t* offsets_ = kNoRecords;
  const std::uint8_t* blob_ = kNoRecords;
};

/// Lays records out one after another and seals them into a RecordSlab
/// once: the way to write records whose sizes are known only one at a
/// time (a repair, a recovered store, slack rows, CDG records).
class RecordSlabWriter {
 public:
  /// Appends a zeroed record of `bytes` bytes and returns it for the
  /// caller to fill, until the next append.
  std::uint8_t* append(std::size_t bytes);
  /// Appends a copy of `record`.
  void append(std::span<const std::uint8_t> record);

  /// The slab of every appended record, in order; the writer is spent.
  RecordSlab finish() &&;

 private:
  std::vector<std::uint64_t> offsets_{0};
  std::vector<std::uint8_t> blob_ = std::vector<std::uint8_t>(kRecordTail);
};

}  // namespace dsketch
