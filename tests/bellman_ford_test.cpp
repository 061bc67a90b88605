#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include "congest/bellman_ford.hpp"
#include "graph/generators.hpp"
#include "graph/shortest_paths.hpp"
#include "sketch/hierarchy.hpp"
#include "sketch/tz_distributed.hpp"
#include "util/rng.hpp"

namespace dsketch {
namespace {

// The k-source shortest paths of Algorithm 1: the TZ construction over
// one level whose members are the sources, so no gate drops a source.
TzDistributedResult multi_source_bf(const Graph& g,
                                    const std::vector<NodeId>& sources) {
  std::vector<std::uint32_t> levels(g.num_nodes(), 0);
  for (const NodeId s : sources) levels[s] = 1;
  return build_tz_distributed(g, Hierarchy(1, std::move(levels)),
                              TerminationMode::kOracle);
}

TEST(MultiSourceBf, MatchesDijkstraPerSource) {
  const Graph g = erdos_renyi(80, 0.06, {1, 20}, 11);
  const std::vector<NodeId> sources{0, 17, 42};
  const TzDistributedResult r = multi_source_bf(g, sources);
  for (const NodeId s : sources) {
    const auto exact = dijkstra(g, s);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      const Dist d = r.labels.view(u).bunch_dist(s);
      ASSERT_NE(d, kInfDist) << "node " << u << " missed source " << s;
      EXPECT_EQ(d, exact[u]);
    }
  }
}

TEST(MultiSourceBf, OnlySourcesAppear) {
  const Graph g = ring(20, {1, 4}, 2);
  const TzDistributedResult r = multi_source_bf(g, {3, 9});
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(r.labels.view(u).count, 2u);
  }
}

TEST(MultiSourceBf, RoundsBoundedBySourcesTimesS) {
  const Graph g = path(50, {1, 1}, 0);
  const TzDistributedResult r = multi_source_bf(g, {0, 49});
  // 2 sources, S = 49; round-robin multiplexing => <= ~2*S + slack.
  EXPECT_LE(r.stats.rounds, 4u * 49 + 10);
}

TEST(SuperSourceBf, NearestSourceAndOwner) {
  const Graph g = erdos_renyi(100, 0.05, {1, 9}, 5);
  const std::vector<NodeId> sources{7, 70};
  const SuperSourceBfResult r = run_super_source_bf(g, sources);
  const MultiSourceResult exact = multi_source_dijkstra(g, sources);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(r.dist[u], exact.dist[u]);
    EXPECT_EQ(r.owner[u], exact.owner[u]);
  }
}

TEST(SuperSourceBf, ParentEdgesFormVoronoiForest) {
  const Graph g = grid2d(8, 8, {1, 3}, 9);
  const std::vector<NodeId> sources{0, 63};
  const SuperSourceBfResult r = run_super_source_bf(g, sources);
  std::size_t claimed = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    claimed += r.child_edges[u].size();
    if (r.parent_edge[u] == SuperSourceBfResult::kNoParent) {
      EXPECT_EQ(r.owner[u], u);  // only sources lack parents
      continue;
    }
    const NodeId p = g.neighbors(u)[r.parent_edge[u]].to;
    // Parent is strictly closer (or equal with smaller owner) and shares
    // the owner: the defining Voronoi-tree invariants.
    EXPECT_EQ(r.owner[p], r.owner[u]);
    EXPECT_EQ(r.dist[p] + g.neighbors(u)[r.parent_edge[u]].weight, r.dist[u]);
  }
  EXPECT_EQ(claimed, static_cast<std::size_t>(g.num_nodes()) - sources.size());
}

TEST(SuperSourceBf, SingleSourceIsSssp) {
  const Graph g = random_tree(40, {1, 6}, 3);
  const SuperSourceBfResult r = run_super_source_bf(g, {5});
  const auto exact = dijkstra(g, 5);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(r.dist[u], exact[u]);
    EXPECT_EQ(r.owner[u], 5u);
  }
}

TEST(OnlineDistance, RoundsAtLeastEccentricityHops) {
  // On a path the online BF from an endpoint needs >= n-1 rounds: this is
  // the Omega(S) cost of query-time distance computation (§2.1).
  const Graph g = path(40, {1, 1}, 0);
  const SimStats stats = online_distance_rounds(g, 0);
  EXPECT_GE(stats.rounds, 39u);
}

class MultiSourceSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(MultiSourceSweep, AgreesWithDijkstra) {
  const auto [seed, num_sources] = GetParam();
  const Graph g = random_graph_nm(60, 150, {1, 15}, seed);
  Rng rng(seed * 7 + 1);
  std::vector<NodeId> sources;
  for (int i = 0; i < num_sources; ++i) {
    sources.push_back(static_cast<NodeId>(rng.below(g.num_nodes())));
  }
  std::sort(sources.begin(), sources.end());
  sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
  const TzDistributedResult r = multi_source_bf(g, sources);
  for (const NodeId s : sources) {
    const auto exact = dijkstra(g, s);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      EXPECT_EQ(r.labels.view(u).bunch_dist(s), exact[u]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MultiSourceSweep,
    ::testing::Combine(::testing::Values(1, 2, 3), ::testing::Values(1, 4, 9)));

}  // namespace
}  // namespace dsketch
