#include "sketch/record_slab.hpp"

#include "util/assert.hpp"

namespace dsketch {

void write_bits(std::uint8_t* base, std::uint64_t pos, unsigned width,
                std::uint64_t value) {
  std::uint8_t* p = base + (pos >> 3);
  const unsigned shift = pos & 7;
  const std::uint64_t mask = low_mask(width);
  store_le64(p, (load_le64(p) & ~(mask << shift)) | (value << shift));
  if (shift + width > 64) {
    const unsigned spill = 64 - shift;
    p[8] = static_cast<std::uint8_t>((p[8] & ~(mask >> spill)) |
                                     (value >> spill));
  }
}

std::uint8_t* RecordSlab::append(std::size_t bytes) {
  DS_CHECK_MSG(owned(), "a borrowed record slab is read-only");
  const std::size_t begin = own_offsets_.back();
  // The old tail becomes the record's first bytes; resize zero-fills the
  // rest and the new tail.
  own_blob_.resize(begin + bytes + kRecordTail, 0);
  own_offsets_.push_back(begin + bytes);
  ++n_;
  return own_blob_.data() + begin;
}

void RecordSlab::append(std::span<const std::uint8_t> record) {
  std::uint8_t* out = append(record.size());
  if (!record.empty()) std::memcpy(out, record.data(), record.size());
}

void RecordSlab::reserve(std::size_t records, std::size_t bytes) {
  DS_CHECK_MSG(owned(), "a borrowed record slab is read-only");
  own_offsets_.reserve(own_offsets_.size() + records);
  own_blob_.reserve(own_blob_.size() + bytes);
}

std::uint8_t* RecordSlab::mutable_record(NodeId u) {
  DS_CHECK_MSG(owned(), "a borrowed record slab is read-only");
  DS_CHECK(u < n_);
  return own_blob_.data() + offset(u);
}

}  // namespace dsketch
