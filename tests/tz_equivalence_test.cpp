// The load-bearing test of the reproduction: for a fixed hierarchy, the
// distributed Algorithm 2 must produce *exactly* the labels of the
// centralized Thorup-Zwick construction — same pivots, same bunches, same
// distances — in both termination modes. This is the paper's implicit
// correctness claim (Lemma 3.5) made executable.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "dynamics/incremental.hpp"
#include "graph/generators.hpp"
#include "graph/shortest_paths.hpp"
#include "serve/query_service.hpp"
#include "serve/sketch_store.hpp"
#include "sketch/tz_centralized.hpp"
#include "sketch/tz_distributed.hpp"

namespace dsketch {
namespace {

void expect_equal_labels(const LabelArena& a, const LabelArena& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  for (NodeId u = 0; u < a.num_nodes(); ++u) {
    ASSERT_TRUE(a.view(u) == b.view(u)) << "label mismatch at node " << u;
  }
}

struct Case {
  const char* name;
  Graph graph;
};

std::vector<Case> topologies(std::uint64_t seed) {
  std::vector<Case> cases;
  cases.push_back({"erdos_renyi", erdos_renyi(90, 0.06, {1, 9}, seed)});
  cases.push_back({"grid", grid2d(9, 9, {1, 13}, seed)});
  cases.push_back({"tree", random_tree(70, {1, 9}, seed)});
  cases.push_back({"ring_chords", ring_with_chords(80, 25, 7, 1, seed)});
  cases.push_back({"ba", barabasi_albert(80, 2, {1, 5}, seed)});
  cases.push_back({"path_weighted", path(50, {1, 30}, seed)});
  cases.push_back({"star", star(60, {1, 11}, seed)});
  return cases;
}

/// Disjoint union of graphs (node ids offset in order) plus `isolated`
/// extra degree-zero vertices at the end. The generators always add a
/// connectivity backbone, so disconnected inputs are assembled here.
Graph disjoint_union(const std::vector<Graph>& parts, NodeId isolated) {
  std::vector<Edge> edges;
  NodeId offset = 0;
  for (const Graph& part : parts) {
    for (NodeId u = 0; u < part.num_nodes(); ++u) {
      for (const HalfEdge& he : part.neighbors(u)) {
        if (he.to > u) {
          edges.push_back(Edge{offset + u, offset + he.to, he.weight});
        }
      }
    }
    offset += part.num_nodes();
  }
  return Graph::from_edges(offset + isolated, edges);
}

class EquivalenceSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint64_t>> {
};

TEST_P(EquivalenceSweep, DistributedOracleEqualsCentralized) {
  const auto [k, seed] = GetParam();
  for (auto& c : topologies(seed)) {
    const Hierarchy h = Hierarchy::sample(c.graph.num_nodes(), k, seed + 7);
    const auto central = build_tz_centralized(c.graph, h);
    const auto distributed =
        build_tz_distributed(c.graph, h, TerminationMode::kOracle);
    SCOPED_TRACE(c.name);
    expect_equal_labels(central, distributed.labels);
  }
}

TEST_P(EquivalenceSweep, DistributedEchoEqualsCentralized) {
  const auto [k, seed] = GetParam();
  for (auto& c : topologies(seed)) {
    const Hierarchy h = Hierarchy::sample(c.graph.num_nodes(), k, seed + 7);
    const auto central = build_tz_centralized(c.graph, h);
    const auto distributed =
        build_tz_distributed(c.graph, h, TerminationMode::kEcho);
    SCOPED_TRACE(c.name);
    expect_equal_labels(central, distributed.labels);
  }
}

TEST_P(EquivalenceSweep, DistributedKnownSEqualsCentralized) {
  const auto [k, seed] = GetParam();
  for (auto& c : topologies(seed)) {
    const Hierarchy h = Hierarchy::sample(c.graph.num_nodes(), k, seed + 7);
    const auto central = build_tz_centralized(c.graph, h);
    const auto distributed =
        build_tz_distributed(c.graph, h, TerminationMode::kKnownS);
    SCOPED_TRACE(c.name);
    expect_equal_labels(central, distributed.labels);
    // The padded deadlines dominate the true convergence time.
    const auto oracle =
        build_tz_distributed(c.graph, h, TerminationMode::kOracle);
    EXPECT_GE(distributed.stats.rounds, oracle.stats.rounds);
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, EquivalenceSweep,
                         ::testing::Combine(::testing::Values(1u, 2u, 3u, 5u),
                                            ::testing::Values(1u, 2u, 3u)));

TEST(Disconnected, AllTerminationModesMatchCentralized) {
  // Multi-component input: three generated components of different shapes
  // plus three isolated vertices. Every termination mode must reproduce
  // the centralized labels — echo mode runs one §3.3 cascade per
  // component root, known-S uses the largest component diameter.
  std::vector<Graph> parts;
  parts.push_back(erdos_renyi(40, 0.08, {1, 7}, 5));
  parts.push_back(grid2d(5, 5, {1, 9}, 6));
  parts.push_back(path(12, {1, 20}, 7));
  std::uint32_t S = 0;
  for (const Graph& part : parts) {
    S = std::max(S, shortest_path_diameter(part));
  }
  const Graph g = disjoint_union(parts, /*isolated=*/3);
  for (const std::uint32_t k : {1u, 2u, 3u}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    const Hierarchy h = Hierarchy::sample(g.num_nodes(), k, 21);
    const auto central = build_tz_centralized(g, h);
    const auto oracle =
        build_tz_distributed(g, h, TerminationMode::kOracle);
    expect_equal_labels(central, oracle.labels);
    const auto echo = build_tz_distributed(g, h, TerminationMode::kEcho);
    expect_equal_labels(central, echo.labels);
    // One phase-completion record per phase, taken network-wide across
    // the per-component cascades.
    EXPECT_EQ(echo.phase_end_rounds.size(), k);
    const auto known =
        build_tz_distributed(g, h, TerminationMode::kKnownS, {},
                             /*eager_send=*/false, /*known_S=*/S);
    expect_equal_labels(central, known.labels);
  }
}

void expect_equal_stats(const SimStats& a, const SimStats& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.words, b.words);
  EXPECT_EQ(a.node_steps, b.node_steps);
  EXPECT_EQ(a.max_outbox, b.max_outbox);
  EXPECT_EQ(a.hit_round_limit, b.hit_round_limit);
}

TEST(Determinism, ByteIdenticalAcrossWorkerThreadsAndReruns) {
  // The event-driven simulator's contract: for a fixed graph and config,
  // labels, per-phase round counts, and every stats counter are
  // identical no matter how many worker threads step the nodes — and
  // across reruns. 300 nodes keeps the active set above the parallelism
  // threshold so the threaded paths genuinely engage.
  const Graph g = erdos_renyi(300, 0.04, {1, 9}, 77);
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), 3, 78);
  SimConfig base;
  base.threads = 1;
  const auto reference =
      build_tz_distributed(g, h, TerminationMode::kEcho, base);
  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SimConfig cfg;
    cfg.threads = threads;
    const auto run = build_tz_distributed(g, h, TerminationMode::kEcho, cfg);
    expect_equal_labels(reference.labels, run.labels);
    expect_equal_stats(reference.stats, run.stats);
    expect_equal_stats(reference.tree_stats, run.tree_stats);
    EXPECT_EQ(reference.phase_end_rounds, run.phase_end_rounds);
  }
}

TEST(Determinism, OracleAndKnownSModesAcrossThreadCounts) {
  const Graph g = barabasi_albert(250, 3, {1, 6}, 31);
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), 2, 32);
  for (const TerminationMode mode :
       {TerminationMode::kOracle, TerminationMode::kKnownS}) {
    SimConfig base;
    base.threads = 1;
    const auto reference = build_tz_distributed(g, h, mode, base);
    for (const unsigned threads : {2u, 8u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      SimConfig cfg;
      cfg.threads = threads;
      const auto run = build_tz_distributed(g, h, mode, cfg);
      expect_equal_labels(reference.labels, run.labels);
      expect_equal_stats(reference.stats, run.stats);
    }
  }
}

TEST(ServePath, DistributedBuildPackServeMatchesCentralized) {
  // The full deployment loop at test scale: build sketches in the
  // network (echo termination, threaded), pack the labels into the
  // serving-tier SketchStore, answer through the sharded QueryService —
  // and require every answer to be distance-identical to a tz_query over
  // the centralized labels.
  const Graph g = erdos_renyi(120, 0.05, {1, 9}, 91);
  const std::uint32_t k = 3;
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), k, 92);
  const auto central = build_tz_centralized(g, h);
  SimConfig cfg;
  cfg.threads = 2;
  const auto distributed =
      build_tz_distributed(g, h, TerminationMode::kEcho, cfg);
  expect_equal_labels(central, distributed.labels);

  const TzLabelOracle oracle(distributed.labels, k);
  const SketchStore store = SketchStore::from_oracle(oracle);
  QueryServiceConfig qcfg;
  qcfg.shards = 8;
  qcfg.threads = 2;
  QueryService service(store, qcfg);
  const NodeId n = g.num_nodes();
  std::vector<QueryService::Pair> pairs;
  for (NodeId u = 0; u < n; u += 3) {
    for (NodeId v = u + 1; v < n; v += 5) {
      pairs.emplace_back(u, v);
    }
  }
  std::vector<Dist> answers(pairs.size());
  service.query_batch(pairs, answers);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(answers[i],
              tz_query(central.view(pairs[i].first), central.view(pairs[i].second)))
        << "pair (" << pairs[i].first << ", " << pairs[i].second << ")";
  }
}

}  // namespace
}  // namespace dsketch
