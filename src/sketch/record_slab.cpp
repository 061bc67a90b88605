#include "sketch/record_slab.hpp"

#include <utility>

#include "util/assert.hpp"

namespace dsketch {

RecordSlab::RecordSlab(std::vector<std::uint64_t> offsets,
                       std::vector<std::uint8_t> blob) {
  DS_CHECK(!offsets.empty() && offsets.front() == 0);
  DS_CHECK(blob.size() == offsets.back() + kRecordTail);
  struct Bytes {
    std::vector<std::uint64_t> offsets;
    std::vector<std::uint8_t> blob;
  };
  const auto bytes =
      std::make_shared<const Bytes>(Bytes{std::move(offsets), std::move(blob)});
  n_ = static_cast<NodeId>(bytes->offsets.size() - 1);
  offsets_ = reinterpret_cast<const std::uint8_t*>(bytes->offsets.data());
  blob_ = bytes->blob.data();
  keep_ = bytes;
}

std::uint8_t* RecordSlabWriter::append(std::size_t bytes) {
  const std::size_t begin = offsets_.back();
  // The old tail becomes the record's first bytes; resize zero-fills the
  // rest and the new tail.
  blob_.resize(begin + bytes + kRecordTail, 0);
  offsets_.push_back(begin + bytes);
  return blob_.data() + begin;
}

void RecordSlabWriter::append(std::span<const std::uint8_t> record) {
  std::uint8_t* out = append(record.size());
  if (!record.empty()) std::memcpy(out, record.data(), record.size());
}

RecordSlab RecordSlabWriter::finish() && {
  return RecordSlab(std::move(offsets_), std::move(blob_));
}

}  // namespace dsketch
