#include <gtest/gtest.h>

#include <tuple>

#include "baselines/exact_oracle.hpp"
#include "graph/generators.hpp"
#include "sketch/path_extraction.hpp"
#include "sketch/tz_distributed.hpp"

namespace dsketch {
namespace {

TEST(PathExtraction, RouteToBunchMemberIsExactShortestPath) {
  const Graph g = erdos_renyi(80, 0.07, {1, 9}, 5);
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), 3, 7);
  const auto r = build_tz_distributed(g, h, TerminationMode::kOracle);
  const ExactOracle oracle(g);
  for (NodeId u = 0; u < g.num_nodes(); u += 3) {
    const LabelView lu = r.labels.view(u);
    for (std::uint32_t j = 0; j < lu.count; ++j) {
      const BunchEntry& e = lu.bunch[j];
      const auto path = route_to_target(g, r.routing, u, e.node);
      ASSERT_GE(path.size(), 1u);
      EXPECT_EQ(path.front(), u);
      EXPECT_EQ(path.back(), e.node);
      // The forwarding chain realizes the exact bunch distance.
      EXPECT_EQ(path_weight(g, path), e.dist);
      EXPECT_EQ(e.dist, oracle.query(u, e.node));
    }
  }
}

TEST(PathExtraction, SelfRouteIsTrivial) {
  const Graph g = ring(12, {1, 3}, 1);
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), 2, 3);
  const auto r = build_tz_distributed(g, h, TerminationMode::kOracle);
  const auto path = route_to_target(g, r.routing, 4, 4);
  EXPECT_EQ(path, std::vector<NodeId>{4});
}

TEST(PathExtraction, EndToEndPathMatchesQueryEstimate) {
  const Graph g = erdos_renyi(100, 0.06, {1, 9}, 11);
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), 3, 13);
  const auto r = build_tz_distributed(g, h, TerminationMode::kOracle);
  for (NodeId u = 0; u < g.num_nodes(); u += 4) {
    for (NodeId v = u + 1; v < g.num_nodes(); v += 5) {
      const ApproxPath p =
          extract_approximate_path(g, r.labels, r.routing, u, v);
      ASSERT_GE(p.nodes.size(), 2u);
      EXPECT_EQ(p.nodes.front(), u);
      EXPECT_EQ(p.nodes.back(), v);
      // The realized path weight equals the sketch estimate exactly.
      EXPECT_EQ(p.weight, tz_query(r.labels.view(u), r.labels.view(v)));
    }
  }
}

TEST(PathExtraction, PathStretchBounded) {
  const std::uint32_t k = 3;
  const Graph g = grid2d(9, 9, {1, 12}, 3);
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), k, 5);
  const auto r = build_tz_distributed(g, h, TerminationMode::kOracle);
  const ExactOracle oracle(g);
  for (NodeId u = 0; u < g.num_nodes(); u += 5) {
    for (NodeId v = u + 1; v < g.num_nodes(); v += 7) {
      const ApproxPath p =
          extract_approximate_path(g, r.labels, r.routing, u, v);
      EXPECT_LE(p.weight, (2 * k - 1) * oracle.query(u, v));
      EXPECT_GE(p.weight, oracle.query(u, v));
    }
  }
}

TEST(PathExtraction, WitnessIsInBothBunchesOrPivotChain) {
  const Graph g = random_tree(60, {1, 7}, 9);
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), 2, 11);
  const auto r = build_tz_distributed(g, h, TerminationMode::kOracle);
  const ApproxPath p = extract_approximate_path(g, r.labels, r.routing, 3, 42);
  ASSERT_NE(p.witness, kInvalidNode);
  // The witness must appear on the extracted path.
  EXPECT_NE(std::find(p.nodes.begin(), p.nodes.end(), p.witness),
            p.nodes.end());
}

TEST(PathExtraction, SameNode) {
  const Graph g = ring(10, {1, 1}, 0);
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), 2, 1);
  const auto r = build_tz_distributed(g, h, TerminationMode::kOracle);
  const ApproxPath p = extract_approximate_path(g, r.labels, r.routing, 5, 5);
  EXPECT_EQ(p.nodes, std::vector<NodeId>{5});
  EXPECT_EQ(p.weight, 0u);
}

class PathExtractionSweep
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint64_t, TerminationMode>> {};

TEST_P(PathExtractionSweep, RealizedPathsAcrossModes) {
  const auto [k, seed, mode] = GetParam();
  const Graph g = random_graph_nm(70, 170, {1, 11}, seed);
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), k, seed + 3);
  const auto r = build_tz_distributed(g, h, mode);
  const ExactOracle oracle(g);
  for (NodeId u = 0; u < g.num_nodes(); u += 6) {
    for (NodeId v = u + 1; v < g.num_nodes(); v += 7) {
      const ApproxPath p =
          extract_approximate_path(g, r.labels, r.routing, u, v);
      EXPECT_EQ(p.weight, tz_query(r.labels.view(u), r.labels.view(v)));
      EXPECT_LE(p.weight, (2 * k - 1) * oracle.query(u, v));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PathExtractionSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 4u), ::testing::Values(1u, 2u),
                       ::testing::Values(TerminationMode::kOracle,
                                         TerminationMode::kEcho)));

}  // namespace
}  // namespace dsketch
