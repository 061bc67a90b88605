#include <gtest/gtest.h>

#include "baselines/exact_oracle.hpp"
#include "graph/generators.hpp"
#include "sketch/stretch_eval.hpp"

namespace dsketch {
namespace {

TEST(FarFlags, CountsStrictlyCloserNodes) {
  // Path 0-1-2-3 unit: from 0, ranks are 1:{0}, 2:{0,1}, 3:{0,1,2}.
  const Graph g = path(4, {1, 1}, 0);
  const ExactOracle oracle(g);
  // eps = 0.5 -> threshold 2 closer nodes.
  const auto flags = far_flags(oracle.row(0), 0, 0.5);
  EXPECT_FALSE(flags[1]);  // 1 closer node (0 itself)
  EXPECT_TRUE(flags[2]);   // 2 closer nodes
  EXPECT_TRUE(flags[3]);
}

TEST(FarFlags, EqualDistancesNotStrictlyCloser) {
  const Graph g = star(5, {3, 3}, 0);  // all leaves equidistant from hub
  const ExactOracle oracle(g);
  const auto flags = far_flags(oracle.row(0), 0, 0.4);  // threshold 2
  // Every leaf has only the hub strictly closer (1 < 2): none are far.
  for (NodeId v = 1; v < 5; ++v) EXPECT_FALSE(flags[v]);
}

TEST(EvaluateStretch, ExactOracleHasStretchOne) {
  const Graph g = erdos_renyi(60, 0.1, {1, 9}, 3);
  const ExactOracle oracle(g);
  const SampledGroundTruth gt(g, 10, 1);
  const auto report = evaluate_stretch(
      g, gt, [&](NodeId u, NodeId v) { return oracle.query(u, v); }, {});
  EXPECT_DOUBLE_EQ(report.average_stretch(), 1.0);
  EXPECT_DOUBLE_EQ(report.max_stretch(), 1.0);
  EXPECT_EQ(report.underestimates, 0u);
  EXPECT_EQ(report.unreachable, 0u);
}

TEST(EvaluateStretch, DetectsUnderestimates) {
  const Graph g = ring(20, {2, 2}, 0);
  const SampledGroundTruth gt(g, 5, 1);
  const auto report = evaluate_stretch(
      g, gt, [&](NodeId, NodeId) -> Dist { return 1; }, {});
  EXPECT_GT(report.underestimates, 0u);
}

TEST(EvaluateStretch, CountsUnreachable) {
  const Graph g = ring(10, {1, 1}, 0);
  const SampledGroundTruth gt(g, 2, 1);
  const auto report = evaluate_stretch(
      g, gt, [&](NodeId, NodeId) { return kInfDist; }, {});
  EXPECT_EQ(report.unreachable, 2u * 9u);
  EXPECT_EQ(report.all.count(), 0u);
}

TEST(EvaluateStretch, UnderestimateRateDividesByScoredPairs) {
  EXPECT_EQ(StretchReport{}.underestimate_rate(), 0.0);
  const Graph g = ring(20, {2, 2}, 0);
  const SampledGroundTruth gt(g, 5, 1);
  // Unreachable answers are not scored: no pair, no rate.
  const auto none = evaluate_stretch(
      g, gt, [&](NodeId, NodeId) { return kInfDist; }, {});
  EXPECT_EQ(none.all.count(), 0u);
  EXPECT_EQ(none.underestimate_rate(), 0.0);
  // Every pair is at distance >= 2, so answering 1 underestimates all.
  const auto all_low = evaluate_stretch(
      g, gt, [&](NodeId, NodeId) -> Dist { return 1; }, {});
  EXPECT_EQ(all_low.underestimates, all_low.all.count());
  EXPECT_DOUBLE_EQ(all_low.underestimate_rate(), 1.0);
}

TEST(EvaluateStretch, FarNearSplitPartitions) {
  const Graph g = erdos_renyi(80, 0.08, {1, 9}, 5);
  const SampledGroundTruth gt(g, 8, 3);
  EvalOptions opts;
  opts.epsilon = 0.2;
  const auto report = evaluate_stretch(
      g, gt, [&](NodeId, NodeId) -> Dist { return 1000000; }, opts);
  EXPECT_EQ(report.far_only.count() + report.near_only.count(),
            report.all.count());
  EXPECT_GT(report.far_only.count(), 0u);
  EXPECT_GT(report.near_only.count(), 0u);
}

TEST(EvaluateStretch, SamplingCapsPairCount) {
  const Graph g = erdos_renyi(100, 0.06, {1, 5}, 9);
  const SampledGroundTruth gt(g, 4, 2);
  EvalOptions opts;
  opts.max_pairs_per_source = 10;
  const ExactOracle oracle(g);
  const auto report = evaluate_stretch(
      g, gt, [&](NodeId u, NodeId v) { return oracle.query(u, v); }, opts);
  EXPECT_EQ(report.all.count(), 40u);
}

}  // namespace
}  // namespace dsketch
