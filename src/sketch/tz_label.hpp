// Thorup–Zwick label (sketch) representation and the O(k) query procedure —
// the "label plane".
//
// A label L(u) stores, for each level i in [0, k):
//   - the pivot p_i(u): the node of A_i nearest to u, with its distance;
//   - the bunch slice B_i(u) = { w in A_i \ A_{i+1} : key(u,w) <
//     key(u, A_{i+1}) }, with exact distances.
// "Nearest" everywhere means minimal *key* (distance, node id) — the paper's
// "breaking ties consistently through processor IDs" made concrete. Using
// keys makes the label set a deterministic function of the hierarchy, so the
// distributed and centralized constructions must agree exactly (tested).
// A node w sits only in the slice of its own top level, so the bunch B(u)
// is a set of (w, d(u,w)) pairs: each id at most once, its level fixed by
// the hierarchy and never stored.
//
// A label's frozen form is one bit-packed record (sketch/record_slab):
//
//   11-byte header   u8 levels, u8 id width, u8 distance width,
//                    u32 bunch count, u32 id base
//   then four columns, each starting on a byte boundary:
//     pivot ids        levels x u32 (kInvalidNode = no pivot; its
//                      distance reads kInfDist)
//     pivot distances  levels x distance width
//     bunch ids        count x id width, stored as id - id base
//     bunch distances  count x distance width
//
// Widths come from the record's own data (the id base is the smallest
// bunch id), never from a setting; a field may be up to 64 bits wide. Bunch
// ids are strictly increasing, so membership is a binary search over the
// id column where it lies.
//
// Representation is split by mutability:
//   - TzLabelBuilder: a mutable label of its own vectors, for a label read
//     off the wire (deserialize_label), E13's legacy reference and tests.
//     No construction goes through it: the builds and repair pack their
//     own pivot and bunch arrays straight into records.
//   - LabelView: one packed record, read in place. Queries, equality and
//     serialization all walk views. A view never owns.
//   - LabelArena: every label of one build, one record per node in a
//     RecordSlab — the very bytes a store file holds, so a loaded or
//     mapped store serves its labels without a decode. An arena never
//     changes: a build packs each record once into the place a prefix sum
//     of the record sizes gave it, and repair writes every label into a
//     RecordSlabWriter and seals a fresh arena. Copies share the bytes, so
//     a view dies only with the last arena that holds them.
// Every record, whichever form it is packed from, is written by one
// function, pack_label(), from a pivot span and a sorted bunch span;
// sort_bunch() orders a bunch by node id and refuses a repeated id.
//
// The query (Lemma 3.2) walks levels i = 0, 1, ... and returns
//   d(u, p_i(u)) + d(v, p_i(u))   for the first i with p_i(u) in B(v)
// (checking both orientations each level), guaranteeing stretch 2k-1.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "sketch/record_slab.hpp"

namespace dsketch {

class ThreadPool;

/// (distance, id) lexicographic key; the library-wide tie-break rule.
struct DistKey {
  Dist dist = kInfDist;
  NodeId id = kInvalidNode;

  friend bool operator<(const DistKey& a, const DistKey& b) {
    if (a.dist != b.dist) return a.dist < b.dist;
    return a.id < b.id;
  }
  friend bool operator==(const DistKey& a, const DistKey& b) {
    return a.dist == b.dist && a.id == b.id;
  }
};

/// One bunch entry: node w at exact distance dist.
struct BunchEntry {
  NodeId node;
  Dist dist;

  friend bool operator==(const BunchEntry& a, const BunchEntry& b) {
    return a.node == b.node && a.dist == b.dist;
  }
};

/// Bytes of a packed label record's header.
constexpr std::size_t kTzHeaderBytes = 11;

/// Where a packed label record's columns start, from its header fields.
struct TzRecordLayout {
  std::uint32_t levels = 0;
  std::uint32_t count = 0;
  std::uint32_t id_base = 0;
  unsigned id_w = 0;
  unsigned dist_w = 0;
  // Byte offsets of the bit-packed columns, and the record size.
  std::uint64_t pivot_dists = 0;
  std::uint64_t ids = 0;
  std::uint64_t dists = 0;
  std::uint64_t size = 0;

  /// Fills the offsets from the counts and widths.
  void place() {
    pivot_dists = kTzHeaderBytes + 4 * std::uint64_t{levels};
    ids = pivot_dists + packed_bytes(levels, dist_w);
    dists = ids + packed_bytes(count, id_w);
    size = dists + packed_bytes(count, dist_w);
  }
  bool widths_ok() const { return id_w <= 32 && dist_w <= 64; }

  /// The layout the header at `rec` declares.
  static TzRecordLayout read(const std::uint8_t* rec) {
    const std::uint64_t head = load_le64(rec);
    TzRecordLayout l;
    l.levels = head & 0xff;
    l.id_w = (head >> 8) & 0xff;
    l.dist_w = (head >> 16) & 0xff;
    l.count = static_cast<std::uint32_t>(head >> 24);
    l.id_base = load_le32(rec + 7);
    l.place();
    return l;
  }
};

/// Exact division by a field width w in [1, 32] of a multiple of w:
/// (x >> shift) * inverse, the inverse of w's odd part modulo 2^64.
struct WidthDivisor {
  unsigned shift = 0;
  std::uint64_t inverse = 0;
};
inline constexpr auto kWidthDivisors = [] {
  std::array<WidthDivisor, 33> d{};
  for (unsigned w = 1; w <= 32; ++w) {
    const auto shift = static_cast<unsigned>(std::countr_zero(w));
    const std::uint64_t odd = w >> shift;
    std::uint64_t inverse = odd;  // right to 3 bits; Newton doubles them
    for (int i = 0; i < 5; ++i) inverse *= 2 - odd * inverse;
    d[w] = WidthDivisor{shift, inverse};
  }
  return d;
}();

/// One packed label record, read in place (layout in the file comment).
/// Valid while the bytes behind it are alive.
class LabelView {
 public:
  NodeId owner = kInvalidNode;
  std::uint32_t levels = 0;
  std::uint32_t count = 0;

  /// The empty label (no pivots, no bunch): every query against it
  /// answers kInfDist.
  LabelView() = default;

  /// The record at [rec, rec + size), 8 bytes past which are readable.
  /// A record whose widths are out of range or whose columns overrun
  /// `size` reads as the empty label, so any bytes answer a distance or
  /// kInfDist, never an out-of-bounds read.
  LabelView(NodeId owner_id, const std::uint8_t* rec, std::size_t size)
      : owner(owner_id) {
    if (size < kTzHeaderBytes) return;
    const TzRecordLayout l = TzRecordLayout::read(rec);
    if (!l.widths_ok() || l.size > size) return;
    levels = l.levels;
    count = l.count;
    rec_ = rec;
    size_ = static_cast<std::size_t>(l.size);
    pivot_dists_ = rec + l.pivot_dists;
    ids_ = rec + l.ids;
    dists_ = rec + l.dists;
    id_base_ = l.id_base;
    id_w_ = static_cast<std::uint8_t>(l.id_w);
    dist_w_ = static_cast<std::uint8_t>(l.dist_w);
    id_mask_ = low_mask(l.id_w);
    dist_mask_ = low_mask(l.dist_w);
    id_div_ = kWidthDivisors[l.id_w];
    count_bits_ = std::uint64_t{l.count} * l.id_w;
    first_span_ = std::bit_floor(std::uint64_t{l.count}) * l.id_w;
  }

  /// True when the record is exactly `size` bytes of well-formed label:
  /// in-range widths and strictly increasing bunch ids. What a checked
  /// load requires of every record.
  static bool valid(const std::uint8_t* rec, std::size_t size);

  DistKey pivot(std::uint32_t level) const {
    const NodeId id = load_le32(rec_ + kTzHeaderBytes + 4 * level);
    if (id == kInvalidNode) return DistKey{};
    return DistKey{read_bits(pivot_dists_, std::uint64_t{level} * dist_w_,
                             dist_w_, dist_mask_),
                   id};
  }
  /// Bunch entry i in node id order.
  BunchEntry entry(std::uint32_t i) const {
    return BunchEntry{
        static_cast<NodeId>(
            id_base_ + read_narrow(ids_, std::uint64_t{i} * id_w_, id_mask_)),
        read_bits(dists_, std::uint64_t{i} * dist_w_, dist_w_, dist_mask_)};
  }

  /// Distance to w if w is in the bunch, kInfDist otherwise: a binary
  /// search over the strictly increasing id column.
  Dist bunch_dist(NodeId w) const {
    // Branchless lower bound with power-of-two steps: the step halves by
    // a shift, the loop count depends only on the bunch size, and the
    // search position is tracked in bits, so no width multiply sits on
    // the dependent chain.
    const unsigned w_id = id_w_;
    const std::uint64_t mask = id_mask_;
    std::uint64_t key = std::uint64_t{w} - id_base_;  // wraps below the base
    key = key > mask ? mask + 1 : key;                // past every stored id
    if (count == 0) return kInfDist;
    if (w_id == 0) {
      return key == 0 ? read_bits(dists_, 0, dist_w_, dist_mask_) : kInfDist;
    }
    std::uint64_t span = first_span_;  // the largest power of two <= count
    // Candidate i: 0 or count - step, by the first probe; then probes
    // read field i + step - 1.
    std::uint64_t pos =
        (read_narrow(ids_, span - w_id, mask) < key ? count_bits_ - span : 0) -
        w_id;
    while (span > w_id) {
      span >>= 1;
      const std::uint64_t probe = pos + span;
      pos = read_narrow(ids_, probe, mask) < key ? probe : pos;
    }
    pos += w_id;
    pos += read_narrow(ids_, pos, mask) < key ? w_id : 0;  // or i + 1
    if (pos >= count_bits_ || read_narrow(ids_, pos, mask) != key) {
      return kInfDist;
    }
    // The entry's index is pos / w_id: an exact division of a multiple.
    const std::uint64_t idx = (pos >> id_div_.shift) * id_div_.inverse;
    return read_bits(dists_, idx * dist_w_, dist_w_, dist_mask_);
  }

  /// Size in words as stored at a node: per level one (pivot id, distance)
  /// pair, per bunch entry one (id, distance) pair — the paper's
  /// accounting, and exactly what the record and the wire carry.
  std::size_t size_words() const {
    return 2 * static_cast<std::size_t>(levels) +
           2 * static_cast<std::size_t>(count);
  }

  /// The packed record behind the view.
  std::span<const std::uint8_t> bytes() const { return {rec_, size_}; }

  /// Deep (content) equality — owner, pivots, and entries.
  friend bool operator==(const LabelView& a, const LabelView& b);

 private:
  /// The empty label's record (zero header), followed by its tail.
  static constexpr std::uint8_t kEmptyRecord[kTzHeaderBytes + kRecordTail] =
      {};

  const std::uint8_t* rec_ = kEmptyRecord;
  std::size_t size_ = kTzHeaderBytes;
  const std::uint8_t* pivot_dists_ = kEmptyRecord;
  const std::uint8_t* ids_ = kEmptyRecord;
  const std::uint8_t* dists_ = kEmptyRecord;
  std::uint32_t id_base_ = 0;
  // Search constants: the field masks, count * id width, the largest
  // power of two <= count times the id width, and division by the width.
  std::uint64_t id_mask_ = 0;
  std::uint64_t dist_mask_ = 0;
  std::uint64_t count_bits_ = 0;
  std::uint64_t first_span_ = 0;
  WidthDivisor id_div_;
  std::uint8_t id_w_ = 0;
  std::uint8_t dist_w_ = 0;
};

/// One label as the packer reads it: pivot keys by level, and the bunch
/// in strictly increasing id order.
struct LabelParts {
  std::span<const DistKey> pivots;
  std::span<const BunchEntry> bunch;
};

/// Orders `bunch` by strictly increasing node id, as the packer reads it;
/// a repeated id fails a DS_CHECK.
void sort_bunch(std::span<BunchEntry> bunch);

/// Bytes of `label`'s packed record.
std::size_t packed_label_size(LabelParts label);
/// Packs `label` into `out` (packed_label_size(label) bytes): the one
/// packer every label record is written by.
void pack_label(LabelParts label, std::uint8_t* out);

/// A mutable label: plain vectors of pivot keys and bunch entries.
/// Finalize with sort_bunch() before taking a view() or its parts().
class TzLabelBuilder {
 public:
  TzLabelBuilder() = default;
  /// A label of `k` invalid pivots and an empty bunch.
  TzLabelBuilder(NodeId owner, std::uint32_t k);

  NodeId owner() const { return owner_; }
  std::uint32_t levels() const {
    return static_cast<std::uint32_t>(pivots_.size());
  }

  void set_pivot(std::uint32_t level, DistKey pivot) {
    pivots_[level] = pivot;
    packed_.clear();
  }
  DistKey pivot(std::uint32_t level) const { return pivots_[level]; }

  void add_bunch_entry(BunchEntry e) {
    if (!bunch_.empty() && e.node <= bunch_.back().node) sorted_ = false;
    bunch_.push_back(e);
    packed_.clear();
  }
  const std::vector<BunchEntry>& bunch() const { return bunch_; }

  /// Canonicalize entry order with the free sort_bunch(). Required
  /// before view() / parts(); idempotent.
  void sort_bunch();
  bool sorted() const { return sorted_; }

  /// The label packed into a buffer this builder owns (must be sorted;
  /// the view dies with the builder and with any further mutation).
  LabelView view() const;

  std::size_t size_words() const {
    return 2 * pivots_.size() + 2 * bunch_.size();
  }

  /// The pivots and bunch, as the packer reads them (must be sorted).
  LabelParts parts() const;

  friend bool operator==(const TzLabelBuilder& a, const TzLabelBuilder& b) {
    return a.view() == b.view();
  }

 private:
  NodeId owner_ = kInvalidNode;
  std::vector<DistKey> pivots_;
  std::vector<BunchEntry> bunch_;
  bool sorted_ = true;
  mutable std::vector<std::uint8_t> packed_;  ///< view()'s record, if packed
};

/// Every label of one build: one packed record per node in a RecordSlab
/// (see the file comment). Node order, no holes: the in-memory arena has
/// exactly a store file's layout. A build lays the slab out by record
/// size and writes each record once, in parallel (pack()). Copying shares
/// the slab's bytes.
class LabelArena {
 public:
  LabelArena() = default;
  /// Serves the records of `slab` (sealed by a RecordSlabWriter, or a
  /// store file's); `k` is the largest level count among them.
  LabelArena(RecordSlab slab, std::uint32_t k)
      : slab_(std::move(slab)), k_(k) {}

  /// Packs label(u) for every node u < n, each label of at most k
  /// levels, in two passes over node blocks on `pool`'s lanes: record
  /// sizes and one prefix sum, then every record written once into its
  /// place. The bytes do not depend on the lane count.
  static LabelArena pack(NodeId n, std::uint32_t k,
                         const std::function<LabelParts(NodeId)>& label,
                         ThreadPool& pool);

  NodeId num_nodes() const { return slab_.num_records(); }
  bool empty() const { return num_nodes() == 0; }
  /// The largest level count of any label (the build's k).
  std::uint32_t k() const { return k_; }

  LabelView view(NodeId u) const {
    return LabelView(u, slab_.record(u), slab_.record_size(u));
  }
  /// The records, as a store segment holds them.
  const RecordSlab& slab() const { return slab_; }

  std::size_t size_words(NodeId u) const { return view(u).size_words(); }
  double mean_size_words() const;
  /// Bunch entries across all labels (diagnostics / size accounting).
  std::size_t total_entries() const;

  /// Label-wise content equality.
  friend bool operator==(const LabelArena& a, const LabelArena& b);

 private:
  RecordSlab slab_;
  std::uint32_t k_ = 0;
};

/// Lemma 3.2: estimate d(u, v) from the two labels alone. Never
/// underestimates; overestimates by at most (2k-1) when both labels come
/// from the same hierarchy over the full vertex set. Returns kInfDist only
/// if the labels are malformed (disconnected input).
Dist tz_query(const LabelView& lu, const LabelView& lv);

/// Exhaustive query variant: minimum of d(u,w) + d(w,v) over every node w
/// present in both bunches, computed as one sorted-merge intersection of
/// the two id-ordered entry columns. Same one-sided guarantee (each term
/// is a real distance), never worse than tz_query — the witness pivot of
/// the standard query is itself a common bunch member — at cost
/// O(|B(u)| + |B(v)|). The E1 bench reports the practical stretch gain.
Dist tz_query_exhaustive(const LabelView& lu, const LabelView& lv);

/// Level at which tz_query settles (for diagnostics / E1 analysis).
struct TzQueryTrace {
  Dist estimate = kInfDist;
  std::uint32_t level = 0;
  bool used_u_pivot = false;  ///< true if p_i(u) in B(v) fired, false if
                              ///< the symmetric check fired
};
TzQueryTrace tz_query_trace(const LabelView& lu, const LabelView& lv);

}  // namespace dsketch
