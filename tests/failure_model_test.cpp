#include <gtest/gtest.h>

#include "dynamics/failure_model.hpp"
#include "graph/generators.hpp"
#include "serve/sketch_store.hpp"

namespace dsketch {
namespace {

TEST(FailureModel, PlanRespectsFractionAndConnectivity) {
  const Graph g = erdos_renyi(200, 0.05, {1, 9}, 3);
  const FailurePlan plan = sample_edge_failures(g, 0.2, 7);
  EXPECT_LE(plan.failed_edges.size(),
            static_cast<std::size_t>(0.2 * g.num_edges()) + 1);
  EXPECT_GT(plan.failed_edges.size(), 0u);
  const Graph degraded = apply_failures(g, plan);
  EXPECT_TRUE(degraded.connected());
  EXPECT_EQ(degraded.num_edges(), g.num_edges() - plan.failed_edges.size());
}

TEST(FailureModel, BridgesSurvive) {
  // A path: every edge is a bridge, so nothing can fail.
  const Graph g = path(30, {1, 5}, 1);
  const FailurePlan plan = sample_edge_failures(g, 0.5, 3);
  EXPECT_TRUE(plan.failed_edges.empty());
}

TEST(FailureModel, ZeroFractionIsNoop) {
  const Graph g = ring(20, {1, 3}, 2);
  const FailurePlan plan = sample_edge_failures(g, 0.0, 1);
  EXPECT_TRUE(plan.failed_edges.empty());
  const Graph same = apply_failures(g, plan);
  EXPECT_EQ(same.num_edges(), g.num_edges());
}

TEST(FailureModel, DeterministicForSeed) {
  const Graph g = erdos_renyi(150, 0.06, {1, 9}, 5);
  const FailurePlan a = sample_edge_failures(g, 0.15, 11);
  const FailurePlan b = sample_edge_failures(g, 0.15, 11);
  EXPECT_EQ(a.failed_edges, b.failed_edges);
}

TEST(FailureModel, DistancesOnlyGrowAfterFailures) {
  const Graph g = erdos_renyi(100, 0.08, {1, 9}, 9);
  const Graph degraded = apply_failures(g, sample_edge_failures(g, 0.3, 5));
  const auto before = dijkstra(g, 0);
  const auto after = dijkstra(degraded, 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_GE(after[v], before[v]);
  }
}

TEST(FailureModel, StaleSketchesUnderestimateAfterChurn) {
  // The point of E11: stale sketches lose the one-sided guarantee.
  const Graph g = erdos_renyi(200, 0.05, {1, 9}, 13);
  BuildConfig cfg;
  cfg.scheme = Scheme::kThorupZwick;
  cfg.k = 2;
  const SketchStore sketches(g, cfg);  // built on the healthy graph
  const Graph degraded = apply_failures(g, sample_edge_failures(g, 0.3, 3));
  const StalenessReport report = evaluate_staleness(
      degraded, [&](NodeId u, NodeId v) { return sketches.query(u, v); }, 10,
      7);
  EXPECT_GT(report.pairs, 0u);
  // Some pair's estimate now routes through a dead edge.
  EXPECT_GT(report.underestimates, 0u);
}

TEST(FailureModel, RebuiltSketchesRestoreGuarantee) {
  const Graph g = erdos_renyi(150, 0.06, {1, 9}, 17);
  const Graph degraded = apply_failures(g, sample_edge_failures(g, 0.25, 9));
  BuildConfig cfg;
  cfg.scheme = Scheme::kThorupZwick;
  cfg.k = 2;
  const SketchStore rebuilt(degraded, cfg);
  const StalenessReport report = evaluate_staleness(
      degraded, [&](NodeId u, NodeId v) { return rebuilt.query(u, v); }, 10,
      7);
  EXPECT_EQ(report.underestimates, 0u);
  EXPECT_LE(report.stretch.max(), 3.0);
}

class FailureSweep : public ::testing::TestWithParam<double> {};

TEST_P(FailureSweep, DegradedGraphStaysConnected) {
  const double fraction = GetParam();
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const Graph g = random_graph_nm(120, 360, {1, 9}, seed);
    const Graph d =
        apply_failures(g, sample_edge_failures(g, fraction, seed + 5));
    EXPECT_TRUE(d.connected());
  }
}

INSTANTIATE_TEST_SUITE_P(Fractions, FailureSweep,
                         ::testing::Values(0.05, 0.2, 0.5, 0.7));

}  // namespace
}  // namespace dsketch
