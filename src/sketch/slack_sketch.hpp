// Stretch-3 ε-slack sketches (Theorem 4.3).
//
// Build an ε-density net N, then run the multi-source distributed
// Bellman–Ford with N as sources so every node learns d(u, w) for all
// w ∈ N. The sketch of u is the full vector of net distances
// (O((1/ε) log n) words); the estimate for (u, v) is
//   min_{w in N} d(u,w) + d(w,v),
// which is ≥ d(u,v) always and ≤ 3·d(u,v) whenever v is ε-far from u.
#pragma once

#include <cstdint>
#include <vector>

#include "congest/accounting.hpp"
#include "congest/sim.hpp"
#include "graph/graph.hpp"

namespace dsketch {

/// The slack estimate from two sketch rows of `net_size` net distances:
/// min over net nodes w of d(u,w) + d(w,v), skipping unreachable w.
Dist slack_query(const Dist* du, const Dist* dv, std::size_t net_size);

class SlackSketchSet {
 public:
  SlackSketchSet() = default;
  /// An empty table over `net`; rows are added with append_row.
  explicit SlackSketchSet(std::vector<NodeId> net) : net_(std::move(net)) {}

  const std::vector<NodeId>& net() const { return net_; }

  /// Capacity for `nodes` more rows.
  void reserve(std::size_t nodes) {
    dist_.reserve(dist_.size() + nodes * net_.size());
  }

  /// Appends node num_nodes()'s row of net().size() distances.
  void append_row(const Dist* row) {
    dist_.insert(dist_.end(), row, row + net_.size());
    ++n_;
  }

  /// Nodes covered (rows of the distance table).
  std::size_t num_nodes() const { return n_; }

  /// Node u's row: its distance to every net node, in net() order.
  const Dist* row(NodeId u) const { return dist_.data() + u * net_.size(); }

  /// Estimate d(u,v) from the two stored sketches only.
  Dist query(NodeId u, NodeId v) const {
    return u == v ? 0 : slack_query(row(u), row(v), net_.size());
  }

  /// Words stored at node u: one (id, distance) pair per net node.
  std::size_t size_words(NodeId u) const {
    (void)u;
    return 2 * net_.size();
  }

  /// Distance from u to the i-th net node.
  Dist net_dist(NodeId u, std::size_t i) const { return row(u)[i]; }

 private:
  std::vector<NodeId> net_;
  std::size_t n_ = 0;
  std::vector<Dist> dist_;  ///< row-major [node][net index]
};

struct SlackSketchResult {
  SlackSketchSet sketches;
  SimStats stats;
};

/// Distributed construction per Theorem 4.3.
SlackSketchResult build_slack_sketches(const Graph& g, double epsilon,
                                       std::uint64_t seed, SimConfig cfg = {});

}  // namespace dsketch
