// Seeded topology generators spanning the regimes the paper cares about.
//
// The theorems bound rounds by the shortest-path diameter S and sketch
// quality by n and k, so the benchmark suite needs topologies with:
//   - small S (expanders: Erdős–Rényi, Barabási–Albert),
//   - large S (weighted paths, rings, 2-D grids),
//   - low doubling dimension (random geometric, grids) where coordinate
//     systems such as Vivaldi do well, and
//   - high "dimensionality" (expanders, ring+random chords) where §1 argues
//     coordinate systems break down but sketch bounds still hold.
// Every generator takes an explicit seed, always returns a connected graph
// (a Hamiltonian-path backbone is added where the base model may disconnect),
// and draws integer weights from a configurable range.
#pragma once

#include <cstdint>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace dsketch {

/// Weight model applied on top of a topology.
struct WeightSpec {
  Weight min_weight = 1;
  Weight max_weight = 1;  ///< max == min gives an unweighted graph

  Weight sample(Rng& rng) const {
    if (max_weight <= min_weight) return min_weight;
    return static_cast<Weight>(
        rng.range(static_cast<std::int64_t>(min_weight),
                  static_cast<std::int64_t>(max_weight)));
  }
};

/// G(n, p) with a random Hamiltonian-path backbone for connectivity.
Graph erdos_renyi(NodeId n, double p, WeightSpec weights, std::uint64_t seed);

/// G(n, m) sampled uniformly without replacement, plus backbone.
Graph random_graph_nm(NodeId n, std::size_t m, WeightSpec weights,
                      std::uint64_t seed);

/// Unit-square random geometric graph with connection radius r (plus
/// backbone); weights default to quantized Euclidean lengths when
/// `euclidean_weights`.
Graph random_geometric(NodeId n, double radius, std::uint64_t seed,
                       bool euclidean_weights = true);

/// rows x cols 2-D grid; S = rows + cols - 2 when unweighted.
Graph grid2d(NodeId rows, NodeId cols, WeightSpec weights, std::uint64_t seed);

/// Simple cycle on n nodes.
Graph ring(NodeId n, WeightSpec weights, std::uint64_t seed);

/// Path on n nodes — maximizes S (= n-1), the paper's worst case for
/// no-preprocessing distance computation.
Graph path(NodeId n, WeightSpec weights, std::uint64_t seed);

/// Barabási–Albert preferential attachment, `attach` edges per new node.
Graph barabasi_albert(NodeId n, NodeId attach, WeightSpec weights,
                      std::uint64_t seed);

/// Watts–Strogatz small world: ring lattice with `k_nearest` neighbors per
/// side, each edge rewired with probability beta.
Graph watts_strogatz(NodeId n, NodeId k_nearest, double beta,
                     WeightSpec weights, std::uint64_t seed);

/// Uniform random spanning tree topology (random attachment tree).
Graph random_tree(NodeId n, WeightSpec weights, std::uint64_t seed);

/// Ring with `chords` uniformly random long-range chords. With unit chord
/// weight and heavy ring weight this is a classic high-dimensional instance
/// that embeds badly into low-dimensional coordinate spaces.
Graph ring_with_chords(NodeId n, std::size_t chords, Weight ring_weight,
                       Weight chord_weight, std::uint64_t seed);

/// Two-level "ISP-like" topology: `pops` well-connected core nodes (random
/// m-regular-ish core with low weights), each with n/pops access nodes
/// star-attached with higher weights. Models the paper's networking setting.
Graph isp_two_level(NodeId n, NodeId pops, WeightSpec core_weights,
                    WeightSpec access_weights, std::uint64_t seed);

/// Star graph: node 0 is the hub.
Graph star(NodeId n, WeightSpec weights, std::uint64_t seed);

/// Complete graph on n nodes (small n only).
Graph complete(NodeId n, WeightSpec weights, std::uint64_t seed);

/// Caterpillar: heavy-weighted spine with unit legs — makes S large while D
/// stays moderate; stresses the S-vs-D gap discussed in §2.1.
Graph caterpillar(NodeId spine, NodeId legs_per_node, Weight spine_weight,
                  std::uint64_t seed);

}  // namespace dsketch
