// Distributed Bellman–Ford protocols (paper §3.2, §4).
//
// Two variants used as substrates by the sketch constructions:
//
//  - SuperSourceBellmanFord: all sources start at distance 0 as one virtual
//    "super node" (§4, Lemma 4.5); every node learns (d(u,N), owner, parent
//    edge) where owner is the nearest source under (dist, id) keys. The
//    parent edges form the Voronoi forest used to disseminate net-node
//    labels for the CDG sketches.
//
//  - online_distance_rounds: measures the rounds a no-preprocessing online
//    distance query costs (single-source BF until global convergence),
//    the Ω(S) baseline of §2.1 benchmarked in E8.
//
// The k-source shortest paths of Algorithm 1 ([PK09]), where every node
// learns its exact distance to every source, is not here: it is Algorithm
// 2 without the bunch gate, so it runs as the TZ construction over a
// one-level hierarchy whose members are the sources
// (sketch/tz_distributed; the ε-slack sketches of Theorem 4.3 build so).
#pragma once

#include <cstdint>
#include <vector>

#include "congest/accounting.hpp"
#include "congest/sim.hpp"
#include "graph/graph.hpp"

namespace dsketch {

struct SuperSourceBfResult {
  std::vector<Dist> dist;        ///< d(u, sources)
  std::vector<NodeId> owner;     ///< nearest source under (dist, id) keys
  std::vector<std::uint32_t> parent_edge;  ///< local edge toward owner;
                                           ///< kNoParent at sources
  std::vector<std::vector<std::uint32_t>> child_edges;  ///< Voronoi children
  SimStats stats;

  static constexpr std::uint32_t kNoParent = static_cast<std::uint32_t>(-1);
};

/// Single virtual source spanning `sources`; also performs the child-claim
/// round so every node knows its Voronoi-tree children.
SuperSourceBfResult run_super_source_bf(const Graph& g,
                                        const std::vector<NodeId>& sources,
                                        SimConfig cfg = {});

/// Rounds for one online distance computation from `source` with no
/// preprocessing (distributed Bellman-Ford run to completion). This is the
/// cost any ping/Bellman-Ford/Dijkstra style query pays: at least S rounds
/// in the worst case.
SimStats online_distance_rounds(const Graph& g, NodeId source,
                                SimConfig cfg = {});

}  // namespace dsketch
