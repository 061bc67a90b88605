// Approximate shortest-path extraction from TZ labels — the routing
// application that motivates the paper's §1 ("finding shortest paths
// between pairs of nodes, or at least finding the lengths").
//
// Forwarding is read off the labels. By cluster closure (§3.2, [TZ05]),
// if w is in B(x) then every node on a shortest x–w path also has w in
// its bunch, with the exact distance. So x's next hop toward w is a
// neighbour y with weight(x, y) + d(y, w) == d(x, w), and both distances
// are in the labels: no per-node forwarding table is stored. Any label set
// of g works — centralized, in-network, or loaded or mapped from a v4 file.
//
// The distance query (Lemma 3.2) identifies a *witness* w = p_{i*} with
// w in B(u) and w in B(v) (a pivot is in its own node's bunch). Walking
// next hops from u to w and from v to w and joining the halves yields a
// real path of weight d(u,w) + d(w,v), i.e. exactly the query estimate:
// stretch <= 2k-1 end to end.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "sketch/tz_label.hpp"

namespace dsketch {

/// The local edge index at x of its first neighbour y, in adjacency order,
/// with weight(x, y) + d_L(y, target) == d_L(x, target), where d_L(y, t)
/// is 0 when y == t and L(y).bunch_dist(t) otherwise. nullopt when target
/// is not in B(x) or no neighbour qualifies (labels of another graph, a
/// quarantined record).
///
/// Precondition for walks: every edge weight is >= 1 (every manifest
/// graph has it; `dsketch ingest` accepts weight 0). Each hop then lowers
/// d_L by a positive weight, so a walk reaches target in at most
/// d_L(x, target) hops. With zero-weight edges a walk may cycle; the
/// walkers below stop after n hops and report "no path".
std::optional<std::uint32_t> next_hop(const Graph& g, const LabelArena& labels,
                                      NodeId x, NodeId target);

/// Walks next hops from `from` to `target`. Returns the node sequence from
/// `from` to `target` (just {from} when they are equal), or an empty
/// vector when a hop is missing or the walk exceeds n hops.
std::vector<NodeId> route_to_target(const Graph& g, const LabelArena& labels,
                                    NodeId from, NodeId target);

struct ApproxPath {
  std::vector<NodeId> nodes;  ///< u ... w ... v; empty when unknown
  Dist weight = 0;            ///< == tz_query(L(u), L(v)); kInfDist if empty
  NodeId witness = kInvalidNode;
};

/// End-to-end approximate path between u and v through the query witness.
/// An infinite estimate or a failed walk gives an empty path with weight
/// kInfDist: an explicit "don't know", never an abort.
ApproxPath extract_approximate_path(const Graph& g, const LabelArena& labels,
                                    NodeId u, NodeId v);

/// Total weight of a node path (checks every consecutive pair is an edge).
Dist path_weight(const Graph& g, const std::vector<NodeId>& nodes);

}  // namespace dsketch
