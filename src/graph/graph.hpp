// Weighted undirected graph in CSR (compressed sparse row) form.
//
// This is the network topology substrate: every node of the CONGEST simulator
// corresponds to one vertex, every simulator link to one undirected edge.
// Edge weights are nonnegative integers bounded by poly(n) per the paper's
// model (§2.2), so a distance always fits one machine word.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/pair_key.hpp"

namespace dsketch {

using NodeId = std::uint32_t;
using Weight = std::uint32_t;
using Dist = std::uint64_t;

inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);
inline constexpr Dist kInfDist = static_cast<Dist>(-1);

/// Half-edge stored in the adjacency of one endpoint.
struct HalfEdge {
  NodeId to;
  Weight weight;
};

/// One undirected edge (u < v canonical order) with weight.
struct Edge {
  NodeId u;
  NodeId v;
  Weight weight;
};

/// Immutable CSR graph. Build with GraphBuilder or from an edge list.
class Graph {
 public:
  Graph() = default;

  /// Builds from an undirected edge list; parallel edges are kept (the
  /// simulator treats each as a distinct link), self-loops are rejected.
  static Graph from_edges(NodeId n, const std::vector<Edge>& edges);

  /// Builds from pre-assembled CSR buffers: offsets has n+1 entries and
  /// adj holds both half-edges of every undirected edge. Each row is
  /// sorted and deduplicated by neighbor (smallest weight wins), rows are
  /// compacted, and the canonical edge list is derived from the u < v
  /// halves. This is the streaming-ingest entry point (graph_io fills the
  /// two buffers straight off an edge-list file, never holding a separate
  /// Edge vector); self half-edges are dropped.
  static Graph from_adjacency(NodeId n, std::vector<std::size_t> offsets,
                              std::vector<HalfEdge> adj);

  NodeId num_nodes() const { return n_; }
  std::size_t num_edges() const { return edges_.size(); }

  std::span<const HalfEdge> neighbors(NodeId u) const {
    return {adj_.data() + offsets_[u], offsets_[u + 1] - offsets_[u]};
  }
  std::size_t degree(NodeId u) const {
    return offsets_[u + 1] - offsets_[u];
  }

  const std::vector<Edge>& edges() const { return edges_; }

  /// Global index of the d-th half-edge of u; used by the simulator to map a
  /// (node, local edge index) pair onto a link endpoint.
  std::size_t half_edge_index(NodeId u, std::size_t local) const {
    return offsets_[u] + local;
  }

  /// Global index of the reverse direction of half-edge (u, local): u's
  /// slot in its neighbor's adjacency. Rows are sorted by (to, weight), so
  /// parallel (u, v) edges form runs on both sides, and the i-th slot of
  /// u's run pairs with the i-th slot of v's run.
  std::size_t twin(NodeId u, std::size_t local) const;

  /// Sum of all edge weights (useful for upper bounds on distances).
  Dist total_weight() const;

  /// Largest edge weight (0 for an edgeless graph); cached at build time.
  /// The shortest-path kernel selects its frontier engine from this.
  Weight max_weight() const { return max_weight_; }

  /// True when every node can reach every other (BFS check).
  bool connected() const;

 private:
  NodeId n_ = 0;
  Weight max_weight_ = 0;
  std::vector<std::size_t> offsets_;  // n_+1 entries
  std::vector<HalfEdge> adj_;
  std::vector<Edge> edges_;
};

/// Incremental builder used by generators.
///
/// add_edge is append-only: duplicates of the same unordered pair are
/// collapsed by sort-and-unique at build() time (smaller weight wins), so
/// the hot generation path carries no hash map. Generators that need
/// membership queries pay for an index only once they call has_edge —
/// the set is materialized lazily on first use and kept incrementally
/// updated from then on.
class GraphBuilder {
 public:
  explicit GraphBuilder(NodeId n) : n_(n) {}

  /// Records edge {u, v} with weight w; ignores self loops. Duplicates of
  /// the same unordered pair are collapsed at build() time, keeping the
  /// smaller weight.
  void add_edge(NodeId u, NodeId v, Weight w);

  NodeId num_nodes() const { return n_; }
  /// Number of add_edge calls recorded so far (duplicates included —
  /// dedup happens at build()).
  std::size_t num_edges() const { return edges_.size(); }
  bool has_edge(NodeId u, NodeId v) const;

  /// Sorts, deduplicates (min weight per unordered pair), and freezes.
  Graph build() const;
  const std::vector<Edge>& edges() const { return edges_; }

 private:
  static std::uint64_t key(NodeId u, NodeId v) {
    return canonical_pair_key(u, v);
  }
  NodeId n_;
  std::vector<Edge> edges_;
  mutable bool indexed_ = false;
  mutable std::unordered_set<std::uint64_t> index_;  // lazy, has_edge only
};

}  // namespace dsketch
