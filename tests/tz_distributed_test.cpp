#include <gtest/gtest.h>

#include <ostream>
#include <tuple>
#include <utility>
#include <vector>

#include "baselines/exact_oracle.hpp"
#include "graph/generators.hpp"
#include "graph/shortest_paths.hpp"
#include "sketch/tz_centralized.hpp"
#include "sketch/tz_distributed.hpp"

namespace dsketch {
namespace {

TEST(TzDistributed, OracleStretchAndSoundness) {
  const std::uint32_t k = 3;
  const Graph g = erdos_renyi(100, 0.06, {1, 9}, 21);
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), k, 5);
  const TzDistributedResult r =
      build_tz_distributed(g, h, TerminationMode::kOracle);
  const ExactOracle oracle(g);
  for (NodeId u = 0; u < g.num_nodes(); u += 2) {
    for (NodeId v = u + 1; v < g.num_nodes(); v += 3) {
      const Dist d = oracle.query(u, v);
      const Dist est = tz_query(r.labels.view(u), r.labels.view(v));
      ASSERT_NE(est, kInfDist);
      EXPECT_GE(est, d);
      EXPECT_LE(est, (2 * k - 1) * d);
    }
  }
}

TEST(TzDistributed, PhaseEndRoundsMonotone) {
  const Graph g = grid2d(8, 8, {1, 4}, 2);
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), 3, 9);
  const TzDistributedResult r =
      build_tz_distributed(g, h, TerminationMode::kOracle);
  ASSERT_EQ(r.phase_end_rounds.size(), 3u);
  EXPECT_LT(r.phase_end_rounds[0], r.phase_end_rounds[1]);
  EXPECT_LT(r.phase_end_rounds[1], r.phase_end_rounds[2]);
}

TEST(TzDistributed, EchoModeProducesSameLabelsAsOracle) {
  const Graph g = erdos_renyi(80, 0.07, {1, 7}, 33);
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), 3, 11);
  const auto oracle_run =
      build_tz_distributed(g, h, TerminationMode::kOracle);
  const auto echo_run = build_tz_distributed(g, h, TerminationMode::kEcho);
  ASSERT_EQ(oracle_run.labels.num_nodes(), echo_run.labels.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_TRUE(oracle_run.labels.view(u) == echo_run.labels.view(u))
        << "echo/oracle label divergence at node " << u;
  }
}

TEST(TzDistributed, EchoOverheadIsModest) {
  // §3.3: echoes double messages; COMPLETE/START add O(n + D) per phase.
  const Graph g = erdos_renyi(120, 0.05, {1, 5}, 8);
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), 2, 3);
  const auto oracle_run =
      build_tz_distributed(g, h, TerminationMode::kOracle);
  const auto echo_run = build_tz_distributed(g, h, TerminationMode::kEcho);
  EXPECT_LE(echo_run.total_messages(),
            4 * oracle_run.total_messages() + 200 * g.num_nodes());
  EXPECT_GE(echo_run.total_messages(), oracle_run.total_messages());
}

TEST(TzDistributed, RoundsScaleWithShortestPathDiameter) {
  // On a path (S = n-1) with k=1 the construction floods every source
  // through every node; rounds must be >= S.
  const Graph g = path(60, {1, 1}, 0);
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), 1, 1);
  const auto r = build_tz_distributed(g, h, TerminationMode::kOracle);
  EXPECT_GE(r.stats.rounds, 59u);
}

TEST(TzDistributed, KEqualsOneLearnsExactDistances) {
  const Graph g = random_tree(50, {1, 9}, 12);
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), 1, 1);
  const auto r = build_tz_distributed(g, h, TerminationMode::kOracle);
  const ExactOracle oracle(g);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (u == v) continue;
      EXPECT_EQ(tz_query(r.labels.view(u), r.labels.view(v)), oracle.query(u, v));
    }
  }
}

TEST(TzDistributed, WeightedGraphEchoMode) {
  const Graph g = grid2d(6, 6, {1, 20}, 15);
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), 2, 2);
  const auto r = build_tz_distributed(g, h, TerminationMode::kEcho);
  const ExactOracle oracle(g);
  for (NodeId u = 0; u < g.num_nodes(); u += 2) {
    for (NodeId v = 1; v < g.num_nodes(); v += 3) {
      if (u == v) continue;
      const Dist est = tz_query(r.labels.view(u), r.labels.view(v));
      EXPECT_GE(est, oracle.query(u, v));
      EXPECT_LE(est, 3 * oracle.query(u, v));
    }
  }
}

TEST(TzDistributed, ExhaustiveQueryNeverWorseAndStillSound) {
  const Graph g = erdos_renyi(120, 0.05, {1, 9}, 27);
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), 3, 15);
  const auto r = build_tz_distributed(g, h, TerminationMode::kOracle);
  const ExactOracle oracle(g);
  for (NodeId u = 0; u < g.num_nodes(); u += 3) {
    for (NodeId v = u + 1; v < g.num_nodes(); v += 4) {
      const Dist standard = tz_query(r.labels.view(u), r.labels.view(v));
      const Dist exhaustive = tz_query_exhaustive(r.labels.view(u), r.labels.view(v));
      ASSERT_NE(exhaustive, kInfDist);
      EXPECT_LE(exhaustive, standard);           // pivot is a common member
      EXPECT_GE(exhaustive, oracle.query(u, v));  // still one-sided
    }
  }
}

class TzDistributedSweep
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint64_t, TerminationMode>> {};

TEST_P(TzDistributedSweep, StretchBoundAcrossTopologiesAndModes) {
  const auto [k, seed, mode] = GetParam();
  const Graph g = random_graph_nm(70, 170, {1, 11}, seed);
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), k, seed + 100);
  const auto r = build_tz_distributed(g, h, mode);
  const ExactOracle oracle(g);
  for (NodeId u = 0; u < g.num_nodes(); u += 3) {
    for (NodeId v = u + 1; v < g.num_nodes(); v += 4) {
      const Dist d = oracle.query(u, v);
      const Dist est = tz_query(r.labels.view(u), r.labels.view(v));
      ASSERT_NE(est, kInfDist);
      EXPECT_GE(est, d);
      EXPECT_LE(est, (2 * k - 1) * d) << "pair " << u << "," << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TzDistributedSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 4u),
                       ::testing::Values(1u, 2u),
                       ::testing::Values(TerminationMode::kOracle,
                                         TerminationMode::kEcho)));

// ---- Pinned counts -------------------------------------------------------
//
// The simulator and the protocols' state may get cheaper, but never change
// a send: the rounds, messages, words, node steps and peak outbox depth of
// one fixed instance are pinned here, as recorded from the simulator before
// its flat protocol state, 48-byte messages and sort-free receiver pull.
// The thread-count determinism tests only compare runs of one build with
// each other; these constants compare builds across commits.

struct Counts {
  std::uint64_t rounds;
  std::uint64_t messages;
  std::uint64_t words;
  std::uint64_t node_steps;
  std::uint64_t max_outbox;
  bool operator==(const Counts&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Counts& c) {
  return os << "{" << c.rounds << ", " << c.messages << ", " << c.words
            << ", " << c.node_steps << ", " << c.max_outbox << "}";
}

Counts counts_of(const SimStats& s) {
  return {s.rounds, s.messages, s.words, s.node_steps, s.max_outbox};
}

Graph pinned_graph() { return erdos_renyi(160, 0.05, {1, 12}, 2024); }

TEST(TzDistributedPinned, EveryModeKeepsTheRecordedCountsAndLabels) {
  const Graph g = pinned_graph();
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), 3, 7);
  const LabelArena central = build_tz_centralized(g, h);
  const auto expect_central_labels = [&](const TzDistributedResult& r) {
    ASSERT_TRUE(r.completed);
    ASSERT_EQ(r.labels.num_nodes(), central.num_nodes());
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      ASSERT_TRUE(r.labels.view(u) == central.view(u)) << "node " << u;
    }
  };

  const auto echo = build_tz_distributed(g, h, TerminationMode::kEcho);
  expect_central_labels(echo);
  EXPECT_EQ(counts_of(echo.tree_stats), (Counts{8, 5422, 15948, 1014, 1}));
  EXPECT_EQ(counts_of(echo.stats), (Counts{145, 78737, 312722, 13190, 15}));

  const auto oracle = build_tz_distributed(g, h, TerminationMode::kOracle);
  expect_central_labels(oracle);
  EXPECT_EQ(counts_of(oracle.stats), (Counts{56, 33700, 134800, 6984, 1}));

  const auto known = build_tz_distributed(g, h, TerminationMode::kKnownS);
  expect_central_labels(known);
  EXPECT_EQ(counts_of(known.stats), (Counts{2332, 33700, 134800, 7144, 1}));

  // Fault tolerance on, no faults: every frame carries the reliable
  // layer's header word, so DATA/ECHO are the widest (5-word) messages.
  TzFaultTolerance ft;
  ft.enabled = true;
  const auto reliable = build_tz_distributed(
      g, h, TerminationMode::kEcho, {}, /*eager_send=*/false, 0, ft);
  expect_central_labels(reliable);
  EXPECT_EQ(counts_of(reliable.tree_stats), (Counts{8, 5422, 15948, 1014, 1}));
  EXPECT_EQ(counts_of(reliable.stats),
            (Counts{180, 104439, 417329, 21400, 17}));
  EXPECT_EQ(reliable.retransmits, 0u);
}

TEST(TzDistributedPinned, MultiSourceBellmanFordKeepsTheRecordedCounts) {
  // Algorithm 1 is the TZ construction over one level of sources, so its
  // DATA frames are the 4-word <kData, phase, source, dist>.
  const Graph g = pinned_graph();
  const std::vector<NodeId> sources{0, 17, 42, 99, 123, 150};
  std::vector<std::uint32_t> levels(g.num_nodes(), 0);
  for (const NodeId s : sources) levels[s] = 1;
  const TzDistributedResult r = build_tz_distributed(
      g, Hierarchy(1, std::move(levels)), TerminationMode::kOracle);
  EXPECT_EQ(counts_of(r.stats), (Counts{20, 16062, 64248, 2611, 1}));
  for (const NodeId s : sources) {
    const std::vector<Dist> exact = dijkstra(g, s);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      ASSERT_EQ(r.labels.view(u).count, sources.size());
      EXPECT_EQ(r.labels.view(u).bunch_dist(s), exact[u]);
    }
  }
}

}  // namespace
}  // namespace dsketch
