#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "util/assert.hpp"

namespace dsketch {
namespace {

/// Adds a random Hamiltonian path over a permutation of the nodes, which
/// guarantees connectivity without changing the asymptotic edge count.
void add_backbone(GraphBuilder& b, WeightSpec weights, Rng& rng) {
  const NodeId n = b.num_nodes();
  std::vector<NodeId> perm(n);
  std::iota(perm.begin(), perm.end(), NodeId{0});
  for (NodeId i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.below(i)]);
  }
  for (NodeId i = 0; i + 1 < n; ++i) {
    b.add_edge(perm[i], perm[i + 1], weights.sample(rng));
  }
}

}  // namespace

Graph erdos_renyi(NodeId n, double p, WeightSpec weights, std::uint64_t seed) {
  DS_CHECK(n >= 2);
  Rng rng(seed);
  GraphBuilder b(n);
  // Geometric skipping: expected work O(p n^2) instead of n^2 coin flips.
  if (p > 0) {
    const double log1mp = std::log1p(-std::min(p, 0.999999999999));
    std::uint64_t idx = 0;  // linear index over pairs (u < v)
    const std::uint64_t total =
        static_cast<std::uint64_t>(n) * (n - 1) / 2;
    for (;;) {
      const double skip =
          p >= 1.0 ? 0.0
                   : std::floor(std::log(1.0 - rng.uniform()) / log1mp);
      if (skip > static_cast<double>(total)) break;
      idx += static_cast<std::uint64_t>(skip);
      if (idx >= total) break;
      // invert pair index -> (u, v)
      const double dn = static_cast<double>(n);
      NodeId u = static_cast<NodeId>(
          dn - 0.5 -
          std::sqrt((dn - 0.5) * (dn - 0.5) - 2.0 * static_cast<double>(idx)));
      // fix rounding
      auto row_start = [&](NodeId r) {
        return static_cast<std::uint64_t>(r) * n - static_cast<std::uint64_t>(r) * (r + 1) / 2;
      };
      while (u + 1 < n && row_start(u + 1) <= idx) ++u;
      while (u > 0 && row_start(u) > idx) --u;
      const NodeId v = static_cast<NodeId>(u + 1 + (idx - row_start(u)));
      if (v < n) b.add_edge(u, v, weights.sample(rng));
      ++idx;
    }
  }
  add_backbone(b, weights, rng);
  return b.build();
}

Graph random_graph_nm(NodeId n, std::size_t m, WeightSpec weights,
                      std::uint64_t seed) {
  DS_CHECK(n >= 2);
  Rng rng(seed);
  GraphBuilder b(n);
  std::size_t attempts = 0;
  const std::size_t max_attempts = 20 * m + 1000;
  while (b.num_edges() < m && attempts < max_attempts) {
    const NodeId u = static_cast<NodeId>(rng.below(n));
    const NodeId v = static_cast<NodeId>(rng.below(n));
    if (u != v && !b.has_edge(u, v)) b.add_edge(u, v, weights.sample(rng));
    ++attempts;
  }
  add_backbone(b, weights, rng);
  return b.build();
}

Graph random_geometric(NodeId n, double radius, std::uint64_t seed,
                       bool euclidean_weights) {
  DS_CHECK(n >= 2);
  Rng rng(seed);
  std::vector<double> x(n), y(n);
  for (NodeId i = 0; i < n; ++i) {
    x[i] = rng.uniform();
    y[i] = rng.uniform();
  }
  GraphBuilder b(n);
  // Grid-bucket neighbor search: O(n) cells of side `radius`.
  const int cells = std::max(1, static_cast<int>(1.0 / std::max(radius, 1e-6)));
  std::vector<std::vector<NodeId>> bucket(
      static_cast<std::size_t>(cells) * cells);
  auto cell_of = [&](NodeId i) {
    const int cx = std::min(cells - 1, static_cast<int>(x[i] * cells));
    const int cy = std::min(cells - 1, static_cast<int>(y[i] * cells));
    return static_cast<std::size_t>(cy) * cells + cx;
  };
  for (NodeId i = 0; i < n; ++i) bucket[cell_of(i)].push_back(i);
  const double r2 = radius * radius;
  for (NodeId i = 0; i < n; ++i) {
    const int cx = std::min(cells - 1, static_cast<int>(x[i] * cells));
    const int cy = std::min(cells - 1, static_cast<int>(y[i] * cells));
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        const int nx = cx + dx, ny = cy + dy;
        if (nx < 0 || ny < 0 || nx >= cells || ny >= cells) continue;
        for (NodeId j : bucket[static_cast<std::size_t>(ny) * cells + nx]) {
          if (j <= i) continue;
          const double ddx = x[i] - x[j], ddy = y[i] - y[j];
          const double d2 = ddx * ddx + ddy * ddy;
          if (d2 <= r2) {
            const Weight w =
                euclidean_weights
                    ? static_cast<Weight>(1 + std::llround(std::sqrt(d2) * 1000))
                    : 1;
            b.add_edge(i, j, w);
          }
        }
      }
    }
  }
  WeightSpec backbone{1, euclidean_weights ? Weight{1415} : Weight{1}};
  add_backbone(b, backbone, rng);
  return b.build();
}

Graph grid2d(NodeId rows, NodeId cols, WeightSpec weights,
             std::uint64_t seed) {
  DS_CHECK(rows >= 1 && cols >= 1 && rows * cols >= 2);
  Rng rng(seed);
  GraphBuilder b(rows * cols);
  auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      if (c + 1 < cols) b.add_edge(id(r, c), id(r, c + 1), weights.sample(rng));
      if (r + 1 < rows) b.add_edge(id(r, c), id(r + 1, c), weights.sample(rng));
    }
  }
  return b.build();
}

Graph ring(NodeId n, WeightSpec weights, std::uint64_t seed) {
  DS_CHECK(n >= 3);
  Rng rng(seed);
  GraphBuilder b(n);
  for (NodeId i = 0; i < n; ++i) {
    b.add_edge(i, (i + 1) % n, weights.sample(rng));
  }
  return b.build();
}

Graph path(NodeId n, WeightSpec weights, std::uint64_t seed) {
  DS_CHECK(n >= 2);
  Rng rng(seed);
  GraphBuilder b(n);
  for (NodeId i = 0; i + 1 < n; ++i) b.add_edge(i, i + 1, weights.sample(rng));
  return b.build();
}

Graph barabasi_albert(NodeId n, NodeId attach, WeightSpec weights,
                      std::uint64_t seed) {
  DS_CHECK(n >= 2 && attach >= 1);
  Rng rng(seed);
  GraphBuilder b(n);
  // Repeated-endpoint list gives preferential attachment.
  std::vector<NodeId> endpoints;
  const NodeId seed_nodes = std::min<NodeId>(n, attach + 1);
  for (NodeId u = 0; u < seed_nodes; ++u) {
    for (NodeId v = u + 1; v < seed_nodes; ++v) {
      b.add_edge(u, v, weights.sample(rng));
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }
  for (NodeId u = seed_nodes; u < n; ++u) {
    NodeId added = 0;
    std::size_t guard = 0;
    while (added < attach && guard < 50u * attach + 100) {
      const NodeId v = endpoints[rng.below(endpoints.size())];
      ++guard;
      if (v != u && !b.has_edge(u, v)) {
        b.add_edge(u, v, weights.sample(rng));
        endpoints.push_back(u);
        endpoints.push_back(v);
        ++added;
      }
    }
    if (added == 0) {  // degenerate fallback keeps the graph connected
      b.add_edge(u, static_cast<NodeId>(rng.below(u)), weights.sample(rng));
    }
  }
  return b.build();
}

Graph watts_strogatz(NodeId n, NodeId k_nearest, double beta,
                     WeightSpec weights, std::uint64_t seed) {
  DS_CHECK(n >= 4 && k_nearest >= 1 && 2 * k_nearest < n);
  Rng rng(seed);
  GraphBuilder b(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId j = 1; j <= k_nearest; ++j) {
      NodeId v = (u + j) % n;
      if (rng.bernoulli(beta)) {
        // rewire to a uniform non-self, non-duplicate target
        for (int tries = 0; tries < 32; ++tries) {
          const NodeId w = static_cast<NodeId>(rng.below(n));
          if (w != u && !b.has_edge(u, w)) {
            v = w;
            break;
          }
        }
      }
      b.add_edge(u, v, weights.sample(rng));
    }
  }
  add_backbone(b, weights, rng);
  return b.build();
}

Graph random_tree(NodeId n, WeightSpec weights, std::uint64_t seed) {
  DS_CHECK(n >= 2);
  Rng rng(seed);
  GraphBuilder b(n);
  for (NodeId u = 1; u < n; ++u) {
    b.add_edge(u, static_cast<NodeId>(rng.below(u)), weights.sample(rng));
  }
  return b.build();
}

Graph ring_with_chords(NodeId n, std::size_t chords, Weight ring_weight,
                       Weight chord_weight, std::uint64_t seed) {
  DS_CHECK(n >= 4);
  Rng rng(seed);
  GraphBuilder b(n);
  for (NodeId i = 0; i < n; ++i) b.add_edge(i, (i + 1) % n, ring_weight);
  std::size_t added = 0, guard = 0;
  while (added < chords && guard < 50 * chords + 100) {
    const NodeId u = static_cast<NodeId>(rng.below(n));
    const NodeId v = static_cast<NodeId>(rng.below(n));
    ++guard;
    if (u != v && !b.has_edge(u, v)) {
      b.add_edge(u, v, chord_weight);
      ++added;
    }
  }
  return b.build();
}

Graph isp_two_level(NodeId n, NodeId pops, WeightSpec core_weights,
                    WeightSpec access_weights, std::uint64_t seed) {
  DS_CHECK(pops >= 2 && n >= 2 * pops);
  Rng rng(seed);
  GraphBuilder b(n);
  // Core: ring over PoPs plus random chords, densifying to ~3 edges per PoP.
  for (NodeId i = 0; i < pops; ++i) {
    b.add_edge(i, (i + 1) % pops, core_weights.sample(rng));
  }
  for (NodeId extra = 0; extra < 2 * pops; ++extra) {
    const NodeId u = static_cast<NodeId>(rng.below(pops));
    const NodeId v = static_cast<NodeId>(rng.below(pops));
    if (u != v) b.add_edge(u, v, core_weights.sample(rng));
  }
  // Access nodes attach to one primary PoP and, half the time, one backup.
  for (NodeId u = pops; u < n; ++u) {
    const NodeId primary = static_cast<NodeId>(rng.below(pops));
    b.add_edge(u, primary, access_weights.sample(rng));
    if (rng.bernoulli(0.5)) {
      const NodeId backup = static_cast<NodeId>(rng.below(pops));
      if (backup != primary) b.add_edge(u, backup, access_weights.sample(rng));
    }
  }
  return b.build();
}

Graph star(NodeId n, WeightSpec weights, std::uint64_t seed) {
  DS_CHECK(n >= 2);
  Rng rng(seed);
  GraphBuilder b(n);
  for (NodeId u = 1; u < n; ++u) b.add_edge(0, u, weights.sample(rng));
  return b.build();
}

Graph complete(NodeId n, WeightSpec weights, std::uint64_t seed) {
  DS_CHECK(n >= 2);
  Rng rng(seed);
  GraphBuilder b(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) b.add_edge(u, v, weights.sample(rng));
  }
  return b.build();
}

Graph caterpillar(NodeId spine, NodeId legs_per_node, Weight spine_weight,
                  std::uint64_t seed) {
  DS_CHECK(spine >= 2);
  Rng rng(seed);
  const NodeId n = spine * (1 + legs_per_node);
  GraphBuilder b(n);
  for (NodeId i = 0; i + 1 < spine; ++i) b.add_edge(i, i + 1, spine_weight);
  NodeId next = spine;
  for (NodeId i = 0; i < spine; ++i) {
    for (NodeId l = 0; l < legs_per_node; ++l) b.add_edge(i, next++, 1);
  }
  (void)rng;
  return b.build();
}

}  // namespace dsketch
