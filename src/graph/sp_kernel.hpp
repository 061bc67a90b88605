// Reusable shortest-path kernel: per-thread workspaces with O(1) reset and
// interchangeable frontier engines.
//
// Every search in the library (plain/multi-source Dijkstra, hop BFS, the
// lexicographic (dist, hops) Dijkstra, pruned TZ cluster growth) is one
// instantiation of sp_detail::drain over
//   - a workspace (SpWorkspace): epoch-stamped dist/owner/hops arrays —
//     resetting between searches is a version bump, not an O(n) fill,
//     so one worker can run millions of small pruned searches
//     without touching memory it never visits;
//   - a frontier engine: a monotone bucket queue (Dial) when the graph's
//     max edge weight is small (weights are poly(n) integers per the
//     paper's model, §2.2), or a 4-ary indexed heap with decrease-key as
//     the general fallback. select_engine() picks from Graph::max_weight().
//
// Determinism contract: dist, owner, and hops are each the unique least
// fixed point of their relaxation rule (improvements strictly decrease a
// lexicographic key and every improvement re-enters the frontier), so
// every kernel output is identical across engines, pop-order tie-breaks,
// and thread counts. The property tests in tests/sp_kernel_test.cpp pin
// the contract against a legacy reference.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace dsketch {

inline constexpr std::uint32_t kInvalidHops = static_cast<std::uint32_t>(-1);

enum class SpEngine : std::uint8_t {
  kAuto,    ///< select_engine() decides from the graph's max edge weight
  kBucket,  ///< Dial bucket queue; O(1) push/pop, needs small max weight
  kHeap,    ///< 4-ary indexed heap with decrease-key; always applicable
};

/// Largest max-edge-weight for which kAuto picks the bucket queue. The
/// bucket ring holds max_weight+1 slots and the cursor walks one slot per
/// distance unit, so huge weights would trade O(log n) pops for an O(W)
/// scan; 4096 keeps the ring cache-resident while covering every corpus
/// graph the manifests generate.
inline constexpr Weight kBucketWeightLimit = 4096;

inline SpEngine select_engine(const Graph& g,
                              SpEngine requested = SpEngine::kAuto) {
  if (requested != SpEngine::kAuto) return requested;
  return g.max_weight() <= kBucketWeightLimit ? SpEngine::kBucket
                                              : SpEngine::kHeap;
}

/// Per-thread scratch state for shortest-path searches. All arrays are
/// epoch-stamped: prepare() bumps the epoch, invalidating the previous
/// search's entries in O(1). Results of the last search stay readable
/// until the next prepare() on the same workspace. Only the fields a
/// search tracks are meaningful afterwards (e.g. owner() is defined only
/// after sp_multi_source).
class SpWorkspace {
 public:
  /// Readies the workspace for a new search over n nodes. O(1) unless the
  /// node count grew or the 32-bit epoch wrapped (once per ~4G searches).
  void prepare(NodeId n) {
    n_ = n;
    if (stamp_.size() < n) {
      stamp_.resize(n, 0);
      dist_.resize(n);
    }
    if (++epoch_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0u);
      std::fill(heap_pos_stamp_.begin(), heap_pos_stamp_.end(), 0u);
      epoch_ = 1;
    }
  }

  // Optional result arrays, sized on demand (call after prepare()).
  void ensure_owner() {
    if (owner_.size() < stamp_.size()) owner_.resize(stamp_.size());
  }
  void ensure_hops() {
    if (hops_.size() < stamp_.size()) hops_.resize(stamp_.size());
  }

  // --- results of the last search ---
  NodeId size() const { return n_; }
  bool reached(NodeId u) const { return stamp_[u] == epoch_; }
  Dist dist(NodeId u) const { return reached(u) ? dist_[u] : kInfDist; }
  NodeId owner(NodeId u) const {
    return reached(u) ? owner_[u] : kInvalidNode;
  }
  std::uint32_t hops(NodeId u) const {
    return reached(u) ? hops_[u] : kInvalidHops;
  }

  /// Dense copies (kInfDist / kInvalidNode / kInvalidHops where unreached).
  std::vector<Dist> export_dist() const {
    std::vector<Dist> out(n_);
    for (NodeId u = 0; u < n_; ++u) out[u] = dist(u);
    return out;
  }
  std::vector<NodeId> export_owner() const {
    std::vector<NodeId> out(n_);
    for (NodeId u = 0; u < n_; ++u) out[u] = owner(u);
    return out;
  }
  std::vector<std::uint32_t> export_hops() const {
    std::vector<std::uint32_t> out(n_);
    for (NodeId u = 0; u < n_; ++u) out[u] = hops(u);
    return out;
  }

  // --- hot-path primitives for relaxation policies ---
  bool fresh(NodeId u) const { return stamp_[u] == epoch_; }
  void touch(NodeId u) { stamp_[u] = epoch_; }
  Dist& dist_ref(NodeId u) { return dist_[u]; }
  NodeId& owner_ref(NodeId u) { return owner_[u]; }
  std::uint32_t& hops_ref(NodeId u) { return hops_[u]; }

 private:
  friend class BucketFrontier;
  friend class HeapFrontier;
  friend void sp_hop_bfs(const Graph& g, NodeId source, SpWorkspace& ws);

  NodeId n_ = 0;
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> stamp_;
  std::vector<Dist> dist_;
  std::vector<NodeId> owner_;
  std::vector<std::uint32_t> hops_;

  // Frontier scratch, reused across searches (kept allocated).
  std::vector<std::vector<NodeId>> buckets_;
  std::vector<Dist> heap_key_;
  std::vector<NodeId> heap_node_;
  std::vector<std::uint32_t> heap_pos_;
  std::vector<std::uint32_t> heap_pos_stamp_;
  std::vector<NodeId> bfs_queue_;
};

/// Shared per-OS-thread workspace; what the convenience wrappers and the
/// parallel outer loops use so repeated searches on one thread never
/// reallocate.
SpWorkspace& thread_workspace();

/// Monotone bucket queue (Dial). Entries carry only the node; the cursor
/// is the distance. Lazy deletion: superseded entries are popped and
/// skipped by the drain loop's stale check. Because the drain always runs
/// the frontier dry, buckets are empty again at the end of every search —
/// no cross-search cleanup on the happy path; the destructor sweeps the
/// slots only when an exception (a throwing admit predicate, bad_alloc)
/// escapes mid-drain, so leftover entries can never leak into a later
/// search on the same workspace.
class BucketFrontier {
 public:
  BucketFrontier(SpWorkspace& ws, Weight max_weight)
      : buckets_(ws.buckets_),
        width_(static_cast<std::size_t>(max_weight) + 1) {
    if (buckets_.size() < width_) buckets_.resize(width_);
  }

  ~BucketFrontier() {
    if (live_ != 0) {
      for (std::vector<NodeId>& slot : buckets_) slot.clear();
    }
  }

  bool empty() const { return live_ == 0; }

  void push(NodeId u, Dist d) {
    // Monotonicity bounds d within [cursor, cursor + width), so the slot
    // d % width holds entries of distance exactly d until the cursor
    // passes it.
    buckets_[d % width_].push_back(u);
    ++live_;
  }

  std::pair<NodeId, Dist> pop() {
    while (buckets_[cur_ % width_].empty()) ++cur_;
    std::vector<NodeId>& slot = buckets_[cur_ % width_];
    const NodeId u = slot.back();
    slot.pop_back();
    --live_;
    return {u, cur_};
  }

 private:
  std::vector<std::vector<NodeId>>& buckets_;
  std::size_t width_;
  Dist cur_ = 0;
  std::size_t live_ = 0;
};

/// 4-ary indexed min-heap keyed by distance, with decrease-key (no stale
/// entries). 4-ary beats binary here: shallower tree, and the 4-child
/// min-scan stays in one cache line of the key array.
class HeapFrontier {
 public:
  explicit HeapFrontier(SpWorkspace& ws)
      : key_(ws.heap_key_),
        node_(ws.heap_node_),
        pos_(ws.heap_pos_),
        pos_stamp_(ws.heap_pos_stamp_),
        epoch_(ws.epoch_) {
    key_.clear();
    node_.clear();
    if (pos_.size() < ws.stamp_.size()) {
      pos_.resize(ws.stamp_.size());
      pos_stamp_.resize(ws.stamp_.size(), 0);
    }
  }

  bool empty() const { return key_.empty(); }

  /// Insert, or decrease-key when u is already queued (a push with the
  /// current key — an equal-distance owner/hops refinement — is a no-op:
  /// the queued entry will be popped and relaxed with the refined value).
  void push(NodeId u, Dist d) {
    if (pos_stamp_[u] == epoch_ && pos_[u] != kPopped) {
      const std::size_t i = pos_[u];
      if (key_[i] <= d) return;
      key_[i] = d;
      sift_up(i);
      return;
    }
    pos_stamp_[u] = epoch_;
    key_.push_back(d);
    node_.push_back(u);
    pos_[u] = static_cast<std::uint32_t>(key_.size() - 1);
    sift_up(key_.size() - 1);
  }

  std::pair<NodeId, Dist> pop() {
    const NodeId u = node_[0];
    const Dist d = key_[0];
    pos_[u] = kPopped;
    const std::size_t last = key_.size() - 1;
    if (last > 0) {
      key_[0] = key_[last];
      node_[0] = node_[last];
      pos_[node_[0]] = 0;
    }
    key_.pop_back();
    node_.pop_back();
    if (!key_.empty()) sift_down(0);
    return {u, d};
  }

 private:
  static constexpr std::uint32_t kPopped = static_cast<std::uint32_t>(-1);

  void sift_up(std::size_t i) {
    const Dist d = key_[i];
    const NodeId u = node_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (key_[parent] <= d) break;
      key_[i] = key_[parent];
      node_[i] = node_[parent];
      pos_[node_[i]] = static_cast<std::uint32_t>(i);
      i = parent;
    }
    key_[i] = d;
    node_[i] = u;
    pos_[u] = static_cast<std::uint32_t>(i);
  }

  void sift_down(std::size_t i) {
    const Dist d = key_[i];
    const NodeId u = node_[i];
    const std::size_t size = key_.size();
    for (;;) {
      std::size_t best = i;
      Dist best_key = d;
      const std::size_t first = 4 * i + 1;
      const std::size_t end = first + 4 < size ? first + 4 : size;
      for (std::size_t c = first; c < end; ++c) {
        if (key_[c] < best_key) {
          best = c;
          best_key = key_[c];
        }
      }
      if (best == i) break;
      key_[i] = key_[best];
      node_[i] = node_[best];
      pos_[node_[i]] = static_cast<std::uint32_t>(i);
      i = best;
    }
    key_[i] = d;
    node_[i] = u;
    pos_[u] = static_cast<std::uint32_t>(i);
  }

  std::vector<Dist>& key_;
  std::vector<NodeId>& node_;
  std::vector<std::uint32_t>& pos_;
  std::vector<std::uint32_t>& pos_stamp_;
  std::uint32_t epoch_;
};

namespace sp_detail {

// Policy requirements:
//   bool seed(NodeId s)               — stamp s as a source; false to skip
//   bool relax(NodeId u, NodeId v, Dist nd)
//                                     — try to improve v via u; true when
//                                       v's key changed (v is then pushed)

template <class Frontier, class Policy>
inline void drain(const Graph& g, SpWorkspace& ws, Frontier& f, Policy& p) {
  while (!f.empty()) {
    const auto [u, d] = f.pop();
    if (d != ws.dist_ref(u)) continue;  // stale lazily-deleted entry
    for (const HalfEdge& he : g.neighbors(u)) {
      const Dist nd = d + he.weight;
      if (p.relax(u, he.to, nd)) f.push(he.to, nd);
    }
  }
}

template <class Policy>
inline void search(const Graph& g, SpWorkspace& ws,
                   std::span<const NodeId> sources, Policy& p,
                   SpEngine engine) {
  if (select_engine(g, engine) == SpEngine::kBucket) {
    BucketFrontier f(ws, g.max_weight());
    for (const NodeId s : sources) {
      if (p.seed(s)) f.push(s, 0);
    }
    drain(g, ws, f, p);
  } else {
    HeapFrontier f(ws);
    for (const NodeId s : sources) {
      if (p.seed(s)) f.push(s, 0);
    }
    drain(g, ws, f, p);
  }
}

}  // namespace sp_detail

/// Exact weighted SSSP into the workspace: ws.dist(u) afterwards.
void sp_dijkstra(const Graph& g, NodeId source, SpWorkspace& ws,
                 SpEngine engine = SpEngine::kAuto);

/// Super-source Dijkstra: ws.dist(u) / ws.owner(u) afterwards, with
/// owners resolved by (dist, source id) keys — the library-wide tie rule.
void sp_multi_source(const Graph& g, std::span<const NodeId> sources,
                     SpWorkspace& ws, SpEngine engine = SpEngine::kAuto);

/// Unweighted BFS: ws.hops(u) afterwards (ws.dist(u) mirrors the hop
/// count so the shared stamp stays consistent).
void sp_hop_bfs(const Graph& g, NodeId source, SpWorkspace& ws);

/// Lexicographic (dist, hops) Dijkstra: ws.dist(u) / ws.hops(u) hold the
/// weighted distance and the minimum hop count among weighted shortest
/// paths — the S-diameter ingredient (§2.2).
void sp_dijkstra_min_hops(const Graph& g, NodeId source, SpWorkspace& ws,
                          SpEngine engine = SpEngine::kAuto);

/// Pruned single-source Dijkstra — the TZ cluster-growth primitive, gated
/// at relaxation as TZ05's modified Dijkstra is: `admit(v, d)` is asked
/// before v is first queued, at the distance d it would be queued at, and
/// the source is asked too, at 0. A node it refuses is never queued,
/// popped or stamped, and is asked again at its next candidate distance;
/// a node it admits is reached and is not asked again, so the admitted
/// nodes are exactly the reached ones. `admit` must be monotone in d
/// (admitting d admits every smaller distance). Every reached node whose
/// shortest paths from the source run through admitted nodes gets its
/// exact distance: for a set closed under shortest-path prefixes (a
/// ball, a TZ cluster C(w)) the search reaches that set exactly.
template <class Admit>
void sp_pruned_dijkstra(const Graph& g, NodeId source, SpWorkspace& ws,
                        Admit&& admit, SpEngine engine = SpEngine::kAuto) {
  ws.prepare(g.num_nodes());
  struct Policy {
    SpWorkspace& ws;
    Admit& admit;
    bool seed(NodeId s) {
      if (!admit(s, Dist{0})) return false;
      ws.touch(s);
      ws.dist_ref(s) = 0;
      return true;
    }
    bool relax(NodeId, NodeId v, Dist nd) {
      if (ws.fresh(v)) {
        // Admitted at its larger queued distance, so admitted at nd too.
        if (ws.dist_ref(v) <= nd) return false;
      } else if (!admit(v, nd)) {
        return false;
      }
      ws.touch(v);
      ws.dist_ref(v) = nd;
      return true;
    }
  } policy{ws, admit};
  const NodeId src[1] = {source};
  sp_detail::search(g, ws, src, policy, engine);
}

}  // namespace dsketch
