// Thorup–Zwick label (sketch) representation and the O(k) query procedure —
// the "label plane".
//
// A label L(u) stores, for each level i in [0, k):
//   - the pivot p_i(u): the node of A_i nearest to u, with its distance;
//   - the bunch slice B_i(u) = { w in A_i : key(u,w) < key(u, A_{i+1}) },
//     with exact distances.
// "Nearest" everywhere means minimal *key* (distance, node id) — the paper's
// "breaking ties consistently through processor IDs" made concrete. Using
// keys makes the label set a deterministic function of the hierarchy, so the
// distributed and centralized constructions must agree exactly (tested).
//
// Representation is split by mutability:
//   - TzLabelBuilder: the only mutable form. Constructions accumulate pivots
//     and bunch entries here (plain vectors, no per-label hash map), then
//     finalize into an arena. sort_bunch() canonicalizes entries by
//     (node id, level), the order every immutable consumer assumes.
//   - LabelView: an immutable (pivots ptr, bunch ptr, count) triple over
//     contiguous storage. Queries, encoding, and serialization all walk
//     views; membership tests are branchless binary searches and the
//     exhaustive query is a sorted-merge intersection. A view never owns —
//     it is invalidated by any mutation of the storage behind it.
//   - LabelArena: owns every label of one build as one slab of 16-byte
//     cells plus a per-node slot. A node's record is its pivots directly
//     followed by its bunch entries, so a query touches one contiguous
//     run per label. This is what crosses layer boundaries (build ->
//     oracle -> store -> serve): handing an arena around moves two
//     buffers instead of deep-copying n heap objects. Repair mutates in
//     place (distances only tighten) or replaces one node's record; every
//     mutation bumps the arena generation so serving snapshots can detect
//     staleness.
//
// A pivot is stored as a bunch-entry cell (pivot id, level, distance):
// p_i(u) is itself a member of A_i at a known distance, and one cell type
// is what lets pivots and bunch share the record slab.
//
// The query (Lemma 3.2) walks levels i = 0, 1, ... and returns
//   d(u, p_i(u)) + d(v, p_i(u))   for the first i with p_i(u) in B(v)
// (checking both orientations each level), guaranteeing stretch 2k-1.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace dsketch {

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

/// One bunch entry: node w (member of A_level) at exact distance dist.
struct BunchEntry {
  NodeId node;
  std::uint32_t level;
  Dist dist;

  friend bool operator==(const BunchEntry& a, const BunchEntry& b) {
    return a.node == b.node && a.level == b.level && a.dist == b.dist;
  }
};

/// Immutable view of one label: a (pivots ptr, bunch ptr, count) triple
/// over contiguous storage (a LabelArena record or a builder's vectors).
/// Pivot cells hold (pivot id, level, distance); bunch entries are sorted
/// by (node id, level). The view is only valid while the backing storage
/// is alive and unmutated.
struct LabelView {
  NodeId owner = kInvalidNode;
  std::uint32_t levels = 0;
  std::uint32_t count = 0;
  const BunchEntry* pivots = nullptr;
  const BunchEntry* bunch = nullptr;

  DistKey pivot(std::uint32_t level) const {
    return DistKey{pivots[level].dist, pivots[level].node};
  }

  /// Distance to w if w is in the bunch, kInfDist otherwise. Binary search
  /// over the node-sorted entries; duplicates (one node at several levels)
  /// resolve to the lowest level, which carries the same distance.
  Dist bunch_dist(NodeId w) const {
    if (count == 0) return kInfDist;
    // Branchless lower bound: one conditional move per halving step,
    // with both candidates for the next probe prefetched — a bunch
    // outside the cache then costs overlapped misses, not a chain.
    const BunchEntry* base = bunch;
    for (std::uint32_t len = count; len > 1;) {
      const std::uint32_t half = len / 2;
      const std::uint32_t next = (len - half) / 2;
      __builtin_prefetch(base + next);
      __builtin_prefetch(base + half + next);
      base = base[half].node < w ? base + half : base;
      len -= half;
    }
    base += base->node < w ? 1 : 0;
    return base != bunch + count && base->node == w ? base->dist : kInfDist;
  }
  bool bunch_contains(NodeId w) const { return bunch_dist(w) != kInfDist; }

  /// Size in words as stored at a node: per level one (pivot id, distance)
  /// pair, per bunch entry one (id, distance) pair. Level indices are
  /// derivable and not charged, matching the paper's accounting.
  std::size_t size_words() const {
    return 2 * static_cast<std::size_t>(levels) +
           2 * static_cast<std::size_t>(count);
  }

  /// Deep (content) equality — owner, pivots, and entries.
  friend bool operator==(const LabelView& a, const LabelView& b);
};

/// Mutable label under construction or repair. Plain vectors, no index;
/// finalize with sort_bunch() before taking a view() or moving into a
/// LabelArena.
class TzLabelBuilder {
 public:
  TzLabelBuilder() = default;
  TzLabelBuilder(NodeId owner, std::uint32_t k) { reset(owner, k); }

  /// Deep copy of an existing label back into mutable form (dissemination
  /// reassembly).
  static TzLabelBuilder from_view(const LabelView& v);

  /// Empties the builder into a fresh label of `k` invalid pivots, keeping
  /// the allocated capacity — the record decoder reuses one builder for
  /// every record it reads.
  void reset(NodeId owner, std::uint32_t k);

  NodeId owner() const { return owner_; }
  std::uint32_t levels() const {
    return static_cast<std::uint32_t>(pivots_.size());
  }

  void set_pivot(std::uint32_t level, DistKey pivot) {
    pivots_[level] = BunchEntry{pivot.id, level, pivot.dist};
  }
  DistKey pivot(std::uint32_t level) const {
    return DistKey{pivots_[level].dist, pivots_[level].node};
  }

  void add_bunch_entry(BunchEntry e) {
    if (!bunch_.empty()) {
      const BunchEntry& last = bunch_.back();
      if (e.node < last.node ||
          (e.node == last.node && e.level < last.level)) {
        sorted_ = false;
      }
    }
    bunch_.push_back(e);
  }
  const std::vector<BunchEntry>& bunch() const { return bunch_; }

  /// Dynamics hook: tightens the stored distance of bunch entry `i` in
  /// place. Ids and levels never change — incremental repair only
  /// improves distances — so the sort order stays valid.
  void set_bunch_dist(std::size_t i, Dist d) { bunch_[i].dist = d; }

  /// Canonicalize entry order: sorted by (node id, level). Required
  /// before view() / arena finalization; idempotent.
  void sort_bunch();
  bool sorted() const { return sorted_; }

  /// Immutable view over this builder's storage (must be sorted; the view
  /// dies with the builder and with any further mutation).
  LabelView view() const;

  std::size_t size_words() const {
    return 2 * pivots_.size() + 2 * bunch_.size();
  }

  friend bool operator==(const TzLabelBuilder& a, const TzLabelBuilder& b) {
    return a.view() == b.view();
  }

 private:
  NodeId owner_ = kInvalidNode;
  std::vector<BunchEntry> pivots_;
  std::vector<BunchEntry> bunch_;
  bool sorted_ = true;
};

/// Contiguous storage for all labels of one build: one slab of cells and
/// one slot per node instead of n heap objects. Label u's record is the
/// slab run [begin, begin + levels + count): its pivot cells, then its
/// bunch entries. Records are contiguous per node but, after replace(), not
/// necessarily in node order. Mutations bump generation(); views are
/// invalidated by any mutation (replace and append may reallocate). The
/// serving tier therefore snapshots by copying the arena — two buffer
/// copies — never by sharing a live mutable one.
class LabelArena {
 public:
  LabelArena() = default;

  /// Consumes per-node builders (builders[u].owner() must be u). Unsorted
  /// builders are finalized here.
  static LabelArena from_builders(std::vector<TzLabelBuilder> builders);

  /// Appends `label` as the record of node num_nodes(). The view's owner
  /// is not stored: view(u).owner is always u.
  void append(const LabelView& label);
  /// Capacity for `nodes` more records of `cells` cells in total, so a
  /// loader's appends never reallocate the slab.
  void reserve(std::size_t nodes, std::size_t cells) {
    slots_.reserve(slots_.size() + nodes);
    cells_.reserve(cells_.size() + cells);
  }

  NodeId num_nodes() const { return static_cast<NodeId>(slots_.size()); }
  bool empty() const { return slots_.empty(); }
  /// The largest level count of any label (the build's k).
  std::uint32_t k() const { return k_; }

  LabelView view(NodeId u) const {
    const Slot& s = slots_[u];
    const BunchEntry* rec = cells_.data() + s.begin;
    return LabelView{u, s.levels, s.count, rec, rec + s.levels};
  }

  std::size_t size_words(NodeId u) const { return view(u).size_words(); }
  double mean_size_words() const;
  /// Bunch entries across all labels (diagnostics / size accounting).
  std::size_t total_entries() const;

  /// Monotone counter bumped by every mutation; lets consumers holding a
  /// derived artifact (snapshot, packed store) detect staleness.
  std::uint64_t generation() const { return generation_; }

  // ---- repair hooks (dynamics/incremental) ---------------------------------
  /// Tightens pivot `level` of node u to distance d (id unchanged).
  void tighten_pivot(NodeId u, std::uint32_t level, Dist d) {
    cells_[slots_[u].begin + level].dist = d;
    ++generation_;
  }
  /// Tightens bunch entry `i` (record-local index) of node u to distance d.
  void tighten_bunch_dist(NodeId u, std::uint32_t i, Dist d) {
    const Slot& s = slots_[u];
    cells_[s.begin + s.levels + i].dist = d;
    ++generation_;
  }
  /// Rebuilds node u's record from a fresh builder. Records that fit are
  /// overwritten in place; growing records append at the slab tail and
  /// repoint the slot (the hole is reclaimed by the next from_builders).
  void replace(NodeId u, const TzLabelBuilder& b);

  /// Label-wise content equality (slot layout may differ).
  friend bool operator==(const LabelArena& a, const LabelArena& b);

 private:
  struct Slot {
    std::uint64_t begin = 0;
    std::uint32_t levels = 0;
    std::uint32_t count = 0;
  };

  std::uint32_t k_ = 0;
  std::uint64_t generation_ = 0;
  std::vector<BunchEntry> cells_;  // per-node records: pivots, then bunch
  std::vector<Slot> slots_;        // n
};

/// Lemma 3.2: estimate d(u, v) from the two labels alone. Never
/// underestimates; overestimates by at most (2k-1) when both labels come
/// from the same hierarchy over the full vertex set. Returns kInfDist only
/// if the labels are malformed (disconnected input).
Dist tz_query(const LabelView& lu, const LabelView& lv);

/// Exhaustive query variant: minimum of d(u,w) + d(w,v) over every node w
/// present in both bunches, computed as one sorted-merge intersection of
/// the two node-ordered entry arrays. Same one-sided guarantee (each term
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
