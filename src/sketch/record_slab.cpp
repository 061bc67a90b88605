#include "sketch/record_slab.hpp"

#include "util/assert.hpp"

namespace dsketch {

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

}  // namespace dsketch
