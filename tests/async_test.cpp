// Asynchrony extension (paper §5 future work): messages take uniform
// delays in [1, async_max_delay] rounds and links may reorder. The
// constructions are causal — Bellman-Ford converges under any finite
// delay, the §3.3 echo termination tracks causality rather than rounds —
// so every algorithm must produce *identical labels* under asynchrony.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "congest/bellman_ford.hpp"
#include "graph/generators.hpp"
#include "graph/shortest_paths.hpp"
#include "sketch/cdg_sketch.hpp"
#include "sketch/tz_centralized.hpp"
#include "sketch/tz_distributed.hpp"

namespace dsketch {
namespace {

SimConfig async_cfg(std::uint32_t max_delay, std::uint64_t seed = 0x5eed) {
  SimConfig cfg;
  cfg.async_max_delay = max_delay;
  cfg.async_seed = seed;
  return cfg;
}

TEST(Async, MultiSourceBfExactUnderDelays) {
  const Graph g = erdos_renyi(80, 0.06, {1, 15}, 4);
  const std::vector<NodeId> sources{1, 33, 77};
  const auto r = run_multi_source_bf(g, sources, async_cfg(5));
  for (const NodeId s : sources) {
    const auto exact = dijkstra(g, s);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      EXPECT_EQ(r.dist[u].at(s), exact[u]);
    }
  }
}

TEST(Async, SuperSourceBfExactUnderDelays) {
  const Graph g = grid2d(9, 9, {1, 8}, 7);
  const std::vector<NodeId> sources{0, 40, 80};
  const auto sync = run_super_source_bf(g, sources);
  const auto async = run_super_source_bf(g, sources, async_cfg(4));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(async.dist[u], sync.dist[u]);
    EXPECT_EQ(async.owner[u], sync.owner[u]);
  }
}

TEST(Async, DelaysStretchRoundCount) {
  const Graph g = path(40, {1, 1}, 0);
  const auto sync = run_super_source_bf(g, {0});
  const auto slow = run_super_source_bf(g, {0}, async_cfg(6));
  EXPECT_GT(slow.stats.rounds, sync.stats.rounds);
  // Messages unchanged: delay does not create traffic (no retries needed).
  EXPECT_EQ(slow.stats.messages, sync.stats.messages);
}

TEST(Async, TzOracleLabelsIdenticalUnderDelays) {
  const Graph g = erdos_renyi(80, 0.07, {1, 9}, 9);
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), 3, 5);
  const auto sync = build_tz_distributed(g, h, TerminationMode::kOracle);
  const auto async =
      build_tz_distributed(g, h, TerminationMode::kOracle, async_cfg(4));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_TRUE(sync.labels.view(u) == async.labels.view(u)) << "node " << u;
  }
}

TEST(Async, TzEchoTerminationCorrectUnderDelaysAndReordering) {
  // The §3.3 machinery is the part most exposed to asynchrony: ECHO
  // accounting and the COMPLETE convergecast must not rely on round
  // synchronization or FIFO links.
  const Graph g = erdos_renyi(70, 0.08, {1, 9}, 13);
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), 3, 7);
  const auto central = build_tz_centralized(g, h);
  const auto async =
      build_tz_distributed(g, h, TerminationMode::kEcho, async_cfg(5));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_TRUE(central.view(u) == async.labels.view(u)) << "node " << u;
  }
}

TEST(Async, CdgDisseminationToleratesReordering) {
  const Graph g = erdos_renyi(90, 0.06, {1, 7}, 17);
  CdgConfig cfg;
  cfg.epsilon = 0.25;
  cfg.k = 2;
  cfg.seed = 3;
  const auto sync = build_cdg_sketches(g, cfg);
  const auto async = build_cdg_sketches(g, cfg, async_cfg(5));
  for (NodeId u = 0; u < g.num_nodes(); u += 2) {
    for (NodeId v = u + 1; v < g.num_nodes(); v += 3) {
      EXPECT_EQ(sync.sketches.query(u, v), async.sketches.query(u, v));
    }
  }
}

TEST(Async, DeterministicForFixedSeed) {
  const Graph g = erdos_renyi(60, 0.08, {1, 5}, 21);
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), 2, 9);
  const auto a =
      build_tz_distributed(g, h, TerminationMode::kEcho, async_cfg(4, 42));
  const auto b =
      build_tz_distributed(g, h, TerminationMode::kEcho, async_cfg(4, 42));
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
  EXPECT_EQ(a.stats.messages, b.stats.messages);
}

TEST(Async, DifferentDelaySeedsSameLabels) {
  const Graph g = grid2d(7, 7, {1, 9}, 2);
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), 2, 3);
  const auto a =
      build_tz_distributed(g, h, TerminationMode::kEcho, async_cfg(4, 1));
  const auto b =
      build_tz_distributed(g, h, TerminationMode::kEcho, async_cfg(4, 2));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_TRUE(a.labels.view(u) == b.labels.view(u)) << "node " << u;
  }
}

TEST(Async, TzEchoIdenticalAcrossSimulatorLanes) {
  // n = 400 at average degree 8: the build's busy rounds have hundreds of
  // receivers, past the 64 at which the receiver pull fans out to the
  // pool, so delays, arrivals and counters come from the parallel pull.
  const Graph g = erdos_renyi(400, 0.02, {1, 12}, 31);
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), 3, 17);
  const auto central = build_tz_centralized(g, h);
  const auto run = [&](unsigned lanes) {
    SimConfig cfg = async_cfg(4);
    cfg.threads = lanes;
    return build_tz_distributed(g, h, TerminationMode::kEcho, cfg);
  };
  const auto counts = [](const SimStats& s) {
    return std::vector<std::uint64_t>{s.rounds,     s.messages,
                                      s.words,      s.node_steps,
                                      s.max_outbox, s.dropped,
                                      s.duplicated};
  };
  const auto one = run(1);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    ASSERT_TRUE(central.view(u) == one.labels.view(u)) << "node " << u;
  }
  for (const unsigned lanes : {2u, 8u}) {
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    const auto many = run(lanes);
    EXPECT_EQ(counts(many.stats), counts(one.stats));
    EXPECT_EQ(counts(many.tree_stats), counts(one.tree_stats));
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      ASSERT_TRUE(one.labels.view(u) == many.labels.view(u)) << "node " << u;
    }
  }
}

class AsyncSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint64_t>> {
};

TEST_P(AsyncSweep, EchoLabelsMatchCentralizedAcrossDelays) {
  const auto [max_delay, seed] = GetParam();
  const Graph g = random_graph_nm(60, 140, {1, 9}, seed);
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), 2, seed + 11);
  const auto central = build_tz_centralized(g, h);
  const auto async = build_tz_distributed(g, h, TerminationMode::kEcho,
                                          async_cfg(max_delay, seed));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    ASSERT_TRUE(central.view(u) == async.labels.view(u)) << "node " << u;
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, AsyncSweep,
                         ::testing::Combine(::testing::Values(2u, 3u, 8u),
                                            ::testing::Values(1u, 2u, 3u)));

}  // namespace
}  // namespace dsketch
