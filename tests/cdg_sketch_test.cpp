#include <gtest/gtest.h>

#include <tuple>

#include "baselines/exact_oracle.hpp"
#include "graph/generators.hpp"
#include "sketch/cdg_sketch.hpp"
#include "sketch/stretch_eval.hpp"

namespace dsketch {
namespace {

TEST(CdgLabelWire, SerializeRoundTrip) {
  TzLabelBuilder l(9, 3);
  l.set_pivot(0, {0, 9});
  l.set_pivot(1, {4, 2});
  l.set_pivot(2, {11, 5});
  l.add_bunch_entry({2, 4});
  l.add_bunch_entry({5, 11});
  l.sort_bunch();
  const auto words = serialize_label(l.view());
  const TzLabelBuilder back = deserialize_label(9, words);
  EXPECT_TRUE(l == back);
}

TEST(CdgLabelWire, EmptyLabel) {
  TzLabelBuilder l(0, 2);
  const TzLabelBuilder back = deserialize_label(0, serialize_label(l.view()));
  EXPECT_TRUE(l == back);
}

TEST(CdgSketch, NeverUnderestimates) {
  const Graph g = erdos_renyi(120, 0.05, {1, 9}, 5);
  CdgConfig cfg;
  cfg.epsilon = 0.2;
  cfg.k = 2;
  cfg.seed = 3;
  const auto r = build_cdg_sketches(g, cfg);
  const ExactOracle oracle(g);
  for (NodeId u = 0; u < g.num_nodes(); u += 3) {
    for (NodeId v = u + 1; v < g.num_nodes(); v += 4) {
      const Dist est = r.sketches.query(u, v);
      ASSERT_NE(est, kInfDist);
      EXPECT_GE(est, oracle.query(u, v));
    }
  }
}

TEST(CdgSketch, SlackStretchBoundOnFarPairs) {
  const Graph g = erdos_renyi(150, 0.04, {1, 9}, 17);
  CdgConfig cfg;
  cfg.epsilon = 0.15;
  cfg.k = 2;
  cfg.seed = 9;
  const auto r = build_cdg_sketches(g, cfg);
  const ExactOracle oracle(g);
  const Dist bound = 8 * r.k_used - 1;
  for (NodeId u = 0; u < g.num_nodes(); u += 5) {
    const auto flags = far_flags(oracle.row(u), u, cfg.epsilon);
    for (NodeId v = 0; v < g.num_nodes(); v += 2) {
      if (v == u || !flags[v]) continue;
      EXPECT_LE(r.sketches.query(u, v), bound * oracle.query(u, v))
          << "far pair " << u << "," << v;
    }
  }
}

TEST(CdgSketch, NetNodesKeepOwnLabel) {
  const Graph g = grid2d(10, 10, {1, 6}, 7);
  CdgConfig cfg;
  cfg.epsilon = 0.25;
  cfg.k = 2;
  cfg.seed = 4;
  const auto r = build_cdg_sketches(g, cfg);
  for (const NodeId w : r.net) {
    EXPECT_EQ(r.sketches.sketch(w).net_node, w);
    EXPECT_EQ(r.sketches.sketch(w).net_dist, 0u);
    EXPECT_EQ(r.sketches.sketch(w).label.owner, w);
  }
}

TEST(CdgSketch, DisseminatedLabelsMatchOwners) {
  const Graph g = erdos_renyi(100, 0.06, {1, 5}, 23);
  CdgConfig cfg;
  cfg.epsilon = 0.3;
  cfg.k = 2;
  cfg.seed = 6;
  const auto r = build_cdg_sketches(g, cfg);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto& s = r.sketches.sketch(u);
    const auto& owner_label = r.sketches.sketch(s.net_node).label;
    EXPECT_TRUE(s.label == owner_label)
        << "node " << u << " received a corrupted label stream";
  }
}

TEST(CdgSketch, CostBreakdownAllPhasesCharged) {
  const Graph g = erdos_renyi(80, 0.08, {1, 5}, 2);
  CdgConfig cfg;
  cfg.epsilon = 0.25;
  cfg.k = 2;
  const auto r = build_cdg_sketches(g, cfg);
  EXPECT_GT(r.voronoi_stats.rounds, 0u);
  EXPECT_GT(r.tz_stats.rounds, 0u);
  EXPECT_GT(r.dissemination_stats.rounds, 0u);
  EXPECT_EQ(r.total().messages, r.voronoi_stats.messages +
                                    r.tz_stats.messages +
                                    r.dissemination_stats.messages);
}

TEST(CdgSketch, EchoTerminationAgrees) {
  const Graph g = erdos_renyi(70, 0.08, {1, 5}, 31);
  CdgConfig a;
  a.epsilon = 0.3;
  a.k = 2;
  a.seed = 8;
  CdgConfig b = a;
  b.termination = TerminationMode::kEcho;
  const auto ra = build_cdg_sketches(g, a);
  const auto rb = build_cdg_sketches(g, b);
  for (NodeId u = 0; u < g.num_nodes(); u += 3) {
    for (NodeId v = u + 1; v < g.num_nodes(); v += 5) {
      EXPECT_EQ(ra.sketches.query(u, v), rb.sketches.query(u, v));
    }
  }
}

TEST(CdgSketch, OversizedKFallsBackGracefully) {
  // A tiny net cannot support many hierarchy levels; the builder must
  // shrink k rather than fail, and the resulting sketches stay sound.
  const Graph g = erdos_renyi(60, 0.1, {1, 5}, 41);
  CdgConfig cfg;
  cfg.epsilon = 0.9;  // tiny net
  cfg.k = 8;          // far more levels than the net supports
  cfg.seed = 2;
  const auto r = build_cdg_sketches(g, cfg);
  EXPECT_LE(r.k_used, cfg.k);
  EXPECT_GE(r.k_used, 1u);
  const ExactOracle oracle(g);
  for (NodeId u = 0; u < g.num_nodes(); u += 4) {
    for (NodeId v = u + 1; v < g.num_nodes(); v += 5) {
      EXPECT_GE(r.sketches.query(u, v), oracle.query(u, v));
    }
  }
}

TEST(CdgSketch, SingleNetNodeDegenerate) {
  // epsilon close to 1 on a small graph can leave a handful of net nodes;
  // every node's sketch then routes through the same few hubs.
  const Graph g = ring(30, {1, 4}, 3);
  CdgConfig cfg;
  cfg.epsilon = 0.95;
  cfg.k = 1;
  cfg.seed = 5;
  const auto r = build_cdg_sketches(g, cfg);
  EXPECT_GE(r.net.size(), 1u);
  const ExactOracle oracle(g);
  for (NodeId u = 0; u < g.num_nodes(); u += 3) {
    for (NodeId v = u + 1; v < g.num_nodes(); v += 4) {
      const Dist est = r.sketches.query(u, v);
      ASSERT_NE(est, kInfDist);
      EXPECT_GE(est, oracle.query(u, v));
    }
  }
}

class CdgSweep : public ::testing::TestWithParam<
                     std::tuple<double, std::uint32_t, std::uint64_t>> {};

TEST_P(CdgSweep, SoundAcrossParameterGrid) {
  const auto [eps, k, seed] = GetParam();
  const Graph g = random_graph_nm(90, 220, {1, 9}, seed);
  CdgConfig cfg;
  cfg.epsilon = eps;
  cfg.k = k;
  cfg.seed = seed + 77;
  const auto r = build_cdg_sketches(g, cfg);
  const ExactOracle oracle(g);
  const Dist bound = 8 * r.k_used - 1;
  for (NodeId u = 0; u < g.num_nodes(); u += 6) {
    const auto flags = far_flags(oracle.row(u), u, eps);
    for (NodeId v = 0; v < g.num_nodes(); v += 3) {
      if (v == u) continue;
      const Dist d = oracle.query(u, v);
      const Dist est = r.sketches.query(u, v);
      EXPECT_GE(est, d);
      if (flags[v]) {
        EXPECT_LE(est, bound * d);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CdgSweep,
    ::testing::Combine(::testing::Values(0.15, 0.3),
                       ::testing::Values(1u, 2u, 3u),
                       ::testing::Values(1u, 2u)));

}  // namespace
}  // namespace dsketch
