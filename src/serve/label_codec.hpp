// v3 record codec: delta + LEB128-varint encoding of one node's sketch,
// straight from and into the label plane (core/sketch_payload).
//
// A fixed-width record would spend 4 words on a bunch entry and 3 on a
// pivot; almost all of those bits are zero on real graphs (node ids are
// dense, distances are small, bunches are sorted so consecutive node ids
// are close). Each node's record is therefore a byte string:
//
//   tz record      varint(levels) varint(count)
//                  per pivot:  varint(id+1; 0 = invalid)
//                              varint(zigzag(dist - prev_pivot_dist))
//                  per entry:  varint(zigzag(node - prev_node))
//                              varint(level) varint(dist)
//   slack record   per net node: varint(dist+1; 0 = kInfDist)
//   cdg record     varint(net_node+1; 0 = invalid)
//                  varint(net_dist+1; 0 = kInfDist)
//                  varint(owner+1; 0 = invalid)  then the tz record
//
// Pivot distances are non-decreasing across levels on a fresh build and
// bunch entries are sorted by node id, so the zigzag deltas are small
// non-negatives; zigzag (not plain unsigned deltas) keeps the coding
// bijective for every label — including repair-tightened labels whose
// pivot distances are no longer monotone — so decode then encode
// reproduces a store's bytes exactly (tested).
//
// Every decode is bounds-checked against the record slice: corrupt bytes
// produce a clean failure, never an out-of-bounds read. A decoded record
// must consume its slice exactly and keep its bunch in (node, level)
// order, the order every label view assumes. That property is what lets
// the mmap store decode records per query without a load-time payload
// checksum pass.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "core/sketch_payload.hpp"
#include "graph/graph.hpp"
#include "sketch/tz_label.hpp"

namespace dsketch {

// ---- LEB128 varint primitives ----------------------------------------------

/// Appends x as a little-endian base-128 varint (1..10 bytes).
void put_varint(std::vector<std::uint8_t>& out, std::uint64_t x);

inline std::uint64_t zigzag64(std::uint64_t delta) {
  // Interpret the mod-2^64 delta as signed and fold the sign into bit 0.
  const auto s = static_cast<std::int64_t>(delta);
  return (static_cast<std::uint64_t>(s) << 1) ^
         static_cast<std::uint64_t>(s >> 63);
}

inline std::uint64_t unzigzag64(std::uint64_t z) {
  return (z >> 1) ^ (~(z & 1) + 1);
}

/// Bounds-checked varint cursor over one record slice. Any overrun or
/// overlong encoding clears ok; get() then returns 0 and the caller
/// bails out. Never reads at or past `end`.
struct VarintReader {
  const std::uint8_t* p = nullptr;
  const std::uint8_t* end = nullptr;
  bool ok = true;

  VarintReader(const std::uint8_t* begin, const std::uint8_t* stop)
      : p(begin), end(stop) {}

  std::uint64_t get() {
    if (p != end && *p < 0x80) return *p++;  // one-byte fast path
    std::uint64_t x = 0;
    unsigned shift = 0;
    while (p != end) {
      const std::uint8_t b = *p++;
      if (shift == 63 && b > 1) break;  // would overflow 64 bits
      x |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return x;
      shift += 7;
      if (shift > 63) break;
    }
    ok = false;
    return 0;
  }
  bool done() const { return p == end; }
};

// ---- records ----------------------------------------------------------------

/// Appends node u's record in store segment `segment` of `payload` (see
/// SketchPayload::num_segments) as v3 bytes.
void encode_v3_record(const SketchPayload& payload, std::size_t segment,
                      NodeId u, std::vector<std::uint8_t>& out);

/// One decoded record, in label-plane form. Reused across records so
/// decoding allocates only when a record outgrows the previous ones.
struct DecodedRecord {
  TzLabelBuilder label;  ///< tz / cdg: the label (owner set)
  std::vector<Dist> row;  ///< slack: one distance per net node
  NodeId net_node = kInvalidNode;  ///< cdg: u'
  Dist net_dist = kInfDist;        ///< cdg: d(u, u')

  /// The cdg fields as a record view (valid until the next decode).
  CdgRecord cdg() const { return CdgRecord{net_node, net_dist, label.view()}; }
};

/// Decodes the record slice [begin, end) of node u for `scheme` into
/// `out` (slack rows hold `slack_net_size` distances; a tz label's owner
/// is u). Returns false unless the bytes are exactly one structurally
/// valid record; `out` is then unspecified.
bool decode_v3_record(Scheme scheme, const std::uint8_t* begin,
                      const std::uint8_t* end, NodeId u,
                      std::size_t slack_net_size, DecodedRecord& out);

/// Label cells (pivots plus bunch entries) the tz or cdg record slice
/// [begin, end) declares in its header — what a loader reserves before
/// decoding a segment. 0 when the header is malformed.
std::size_t v3_label_cells(Scheme scheme, const std::uint8_t* begin,
                           const std::uint8_t* end);

/// Sets `out` to the empty record a quarantined node serves: every query
/// against it answers kInfDist ("don't know"), never a wrong distance.
void empty_record(Scheme scheme, NodeId u, std::size_t slack_net_size,
                  DecodedRecord& out);

}  // namespace dsketch
