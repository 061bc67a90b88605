#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <unordered_set>

#include "graph/generators.hpp"
#include "graph/shortest_paths.hpp"
#include "sketch/spanner.hpp"
#include "sketch/tz_centralized.hpp"
#include "sketch/tz_distributed.hpp"

namespace dsketch {
namespace {

TEST(Spanner, EdgesAreSubsetOfGraph) {
  const Graph g = erdos_renyi(100, 0.08, {1, 9}, 3);
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), 3, 5);
  std::unordered_set<std::uint64_t> original;
  for (const Edge& e : g.edges()) {
    original.insert((static_cast<std::uint64_t>(e.u) << 32) | e.v);
  }
  for (const Edge& e : extract_spanner(g, build_tz_centralized(g, h))) {
    EXPECT_TRUE(original.count((static_cast<std::uint64_t>(e.u) << 32) | e.v))
        << e.u << "-" << e.v;
  }
}

TEST(Spanner, KEqualsOneKeepsShortestPathDag) {
  // k=1: clusters are all of V, so the spanner holds a full shortest path
  // tree per node — exact distances survive.
  const Graph g = grid2d(6, 6, {1, 7}, 2);
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), 1, 1);
  const Graph sp = spanner_graph(g, build_tz_centralized(g, h));
  for (NodeId u = 0; u < g.num_nodes(); u += 5) {
    const auto dg = dijkstra(g, u);
    const auto dh = dijkstra(sp, u);
    for (NodeId v = 0; v < g.num_nodes(); ++v) EXPECT_EQ(dh[v], dg[v]);
  }
}

TEST(Spanner, SparserThanOriginalOnDenseGraphs) {
  const Graph g = erdos_renyi(300, 0.2, {1, 9}, 7);  // dense
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), 3, 9);
  const auto spanner = extract_spanner(g, build_tz_centralized(g, h));
  EXPECT_LT(spanner.size(), g.num_edges() / 2);
}

TEST(Spanner, ConnectedResult) {
  const Graph g = erdos_renyi(150, 0.06, {1, 9}, 11);
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), 4, 13);
  EXPECT_TRUE(spanner_graph(g, build_tz_centralized(g, h)).connected());
}

TEST(Spanner, InNetworkAndCentralizedLabelsGiveOneEdgeSet) {
  const Graph g = erdos_renyi(150, 0.06, {1, 9}, 17);
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), 3, 19);
  const auto keys = [&](const LabelArena& labels) {
    std::set<std::uint64_t> out;
    for (const Edge& e : extract_spanner(g, labels)) {
      out.insert((static_cast<std::uint64_t>(e.u) << 32) | e.v);
    }
    return out;
  };
  const auto in_network = build_tz_distributed(g, h, TerminationMode::kEcho);
  EXPECT_EQ(keys(in_network.labels), keys(build_tz_centralized(g, h)));
}

class SpannerStretchSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint64_t>> {
};

TEST_P(SpannerStretchSweep, StretchBounded) {
  const auto [k, seed] = GetParam();
  const Graph g = random_graph_nm(120, 400, {1, 11}, seed);
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), k, seed + 5);
  const Graph sp = spanner_graph(g, build_tz_centralized(g, h));
  for (NodeId u = 0; u < g.num_nodes(); u += 7) {
    const auto dg = dijkstra(g, u);
    const auto dh = dijkstra(sp, u);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (v == u) continue;
      ASSERT_NE(dh[v], kInfDist);
      EXPECT_GE(dh[v], dg[v]);  // subgraph distances cannot shrink
      EXPECT_LE(dh[v], (2 * k - 1) * dg[v])
          << "pair " << u << "," << v << " k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, SpannerStretchSweep,
                         ::testing::Combine(::testing::Values(1u, 2u, 3u),
                                            ::testing::Values(1u, 2u, 3u)));

}  // namespace
}  // namespace dsketch
