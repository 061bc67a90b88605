#include "sketch/record_slab.hpp"

#include <utility>

#include "util/assert.hpp"

namespace dsketch {

RecordSlab::RecordSlab(std::vector<std::uint64_t> offsets,
                       std::vector<std::uint8_t> blob)
    : n_(static_cast<NodeId>(offsets.size() - 1)),
      own_offsets_(std::move(offsets)),
      own_blob_(std::move(blob)) {
  DS_CHECK(!own_offsets_.empty() && own_offsets_.front() == 0);
  DS_CHECK(own_blob_.size() == own_offsets_.back() + kRecordTail);
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

}  // namespace dsketch
