// Per-node packed records — the one frozen form of every sketch family —
// and the bit-level reader and writer they are packed with.
//
// A RecordSlab holds n byte records back to back in one blob plus an
// (n+1)-entry byte-offset table: record u is blob[offsets[u],
// offsets[u+1]). The blob always ends in kRecordTail zero bytes past the
// last record, so a reader may load 8 bytes at any byte of any record
// (read_bits does). Offset table and blob are exactly a store segment's
// (serve/sketch_store.hpp), so a slab either owns its bytes (a build, a
// repair, a recovered store) or borrows them from a loaded or mapped
// store file, holding a shared reference that keeps them alive: a copied
// slab never dangles, and serving a file needs no decode step.
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

/// Overwrites the field of `width` bits at bit `pos` of `base` with
/// `value` (< 2^width), leaving every other bit as it was: the in-place
/// rewrite repair uses.
void write_bits(std::uint8_t* base, std::uint64_t pos, unsigned width,
                std::uint64_t value);

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
/// the file comment. Appending and in-place rewrites are legal only on a
/// slab that owns its bytes; copying deep-copies owned bytes and shares
/// borrowed ones.
class RecordSlab {
 public:
  /// An empty owned slab.
  RecordSlab() = default;
  /// Borrows a store segment's `n` records: `offsets` holds n+1
  /// little-endian u64s, `blob` the records followed by kRecordTail
  /// bytes. `keep` owns that memory; the slab shares it.
  RecordSlab(std::shared_ptr<const void> keep, const std::uint8_t* offsets,
             const std::uint8_t* blob, NodeId n)
      : n_(n), keep_(std::move(keep)), offsets_(offsets), blob_(blob) {}

  NodeId num_records() const { return n_; }
  bool owned() const { return keep_ == nullptr; }

  std::uint64_t offset(NodeId u) const {
    return load_le64(offset_bytes() + 8 * static_cast<std::size_t>(u));
  }
  /// Record u's first byte; 8 bytes past any of its bytes are readable.
  const std::uint8_t* record(NodeId u) const {
    return blob_bytes() + offset(u);
  }
  std::size_t record_size(NodeId u) const {
    return static_cast<std::size_t>(offset(u + 1) - offset(u));
  }

  /// Appends a zeroed record of `bytes` bytes (followed by the tail) and
  /// returns it for the caller to fill. Owned slabs only.
  std::uint8_t* append(std::size_t bytes);
  /// Appends a copy of `record`.
  void append(std::span<const std::uint8_t> record);
  /// Capacity for `records` more records of `bytes` bytes in total.
  void reserve(std::size_t records, std::size_t bytes);
  /// Record u, writable. Owned slabs only.
  std::uint8_t* mutable_record(NodeId u);

  /// The offset table as a store segment holds it: 8(n+1) bytes.
  std::span<const std::uint8_t> offset_table() const {
    return {offset_bytes(), 8 * (static_cast<std::size_t>(n_) + 1)};
  }
  /// The records and their tail.
  std::span<const std::uint8_t> blob() const {
    return {blob_bytes(), static_cast<std::size_t>(offset(n_)) + kRecordTail};
  }

 private:
  const std::uint8_t* offset_bytes() const {
    return owned() ? reinterpret_cast<const std::uint8_t*>(own_offsets_.data())
                   : offsets_;
  }
  const std::uint8_t* blob_bytes() const {
    return owned() ? own_blob_.data() : blob_;
  }

  NodeId n_ = 0;
  std::shared_ptr<const void> keep_;  ///< borrowed bytes' owner
  const std::uint8_t* offsets_ = nullptr;  ///< borrowed offset table
  const std::uint8_t* blob_ = nullptr;     ///< borrowed blob
  std::vector<std::uint64_t> own_offsets_{0};
  std::vector<std::uint8_t> own_blob_ = std::vector<std::uint8_t>(kRecordTail);
};

}  // namespace dsketch
