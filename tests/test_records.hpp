// Crafting packed records for the record-format and checked-load tests.
//
// The library never rewrites a record (records are write-once), so the
// bit writer that overwrites one field lives here, with the tests that
// break a well-formed record on purpose, and so does an arena of
// hand-made labels.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <utility>

#include "sketch/record_slab.hpp"
#include "sketch/tz_label.hpp"

namespace dsketch {

/// Overwrites the field of `width` bits at bit `pos` of `base` with
/// `value` (< 2^width), leaving every other bit as it was.
inline void write_bits(std::uint8_t* base, std::uint64_t pos, unsigned width,
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

/// The arena whose node u holds the record of labels[u] (a view's owner
/// is not stored: view(u).owner reads u).
inline LabelArena arena_of(std::initializer_list<LabelView> labels) {
  RecordSlabWriter records;
  std::uint32_t k = 0;
  for (const LabelView& label : labels) {
    records.append(label.bytes());
    k = std::max(k, label.levels);
  }
  return LabelArena(std::move(records).finish(), k);
}

}  // namespace dsketch
