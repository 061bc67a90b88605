// Property tests for the shortest-path kernel: the bucket-queue and
// 4-ary-heap engines must return exactly the dist/owner/hops fixed points
// of the legacy reference implementations (bench/legacy_sp_reference.hpp,
// shared with the E13 microbenchmark), on random weighted graphs
// including zero-weight and parallel edges.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "graph/generators.hpp"
#include "graph/sp_kernel.hpp"
#include "legacy_sp_reference.hpp"
#include "util/rng.hpp"

namespace dsketch {
namespace {

std::vector<Dist> ref_dijkstra(const Graph& g, NodeId source) {
  return legacy_ref::dijkstra(g, source);
}

/// A random multigraph exercising the awkward cases: zero-weight edges,
/// parallel edges with distinct weights, tie-heavy small weight ranges.
Graph awkward_graph(NodeId n, std::size_t m, Weight wmax, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> edges;
  // Spanning backbone keeps it connected.
  for (NodeId u = 1; u < n; ++u) {
    const NodeId p = static_cast<NodeId>(rng.below(u));
    edges.push_back(Edge{std::min(p, u), std::max(p, u),
                         static_cast<Weight>(rng.below(wmax + 1))});
  }
  for (std::size_t i = edges.size(); i < m; ++i) {
    NodeId u = static_cast<NodeId>(rng.below(n));
    NodeId v = static_cast<NodeId>(rng.below(n));
    if (u == v) v = (v + 1) % n;
    edges.push_back(Edge{std::min(u, v), std::max(u, v),
                         static_cast<Weight>(rng.below(wmax + 1))});
    if (rng.bernoulli(0.2)) {  // deliberate parallel edge, different weight
      edges.push_back(Edge{std::min(u, v), std::max(u, v),
                           static_cast<Weight>(rng.below(wmax + 1))});
    }
  }
  return Graph::from_edges(n, edges);
}

class SpKernelSweep
    : public ::testing::TestWithParam<std::tuple<Weight, std::uint64_t>> {};

TEST_P(SpKernelSweep, AllEnginesMatchTheReference) {
  const auto [wmax, seed] = GetParam();
  const Graph g = awkward_graph(120, 400, wmax, seed);
  SpWorkspace ws;  // one workspace reused across every search below
  Rng rng(seed * 77 + 1);
  for (int trial = 0; trial < 4; ++trial) {
    const NodeId s = static_cast<NodeId>(rng.below(g.num_nodes()));
    const std::vector<Dist> want = ref_dijkstra(g, s);
    std::vector<Dist> want_ms_dist, want_mh_dist;
    std::vector<NodeId> want_ms_owner;
    std::vector<std::uint32_t> want_mh_hops;
    std::vector<NodeId> sources;
    for (NodeId u = 0; u < g.num_nodes(); u += 1 + s % 7) sources.push_back(u);
    legacy_ref::multi_source(g, sources, want_ms_dist, want_ms_owner);
    legacy_ref::min_hops(g, s, want_mh_dist, want_mh_hops);

    for (const SpEngine engine : {SpEngine::kBucket, SpEngine::kHeap}) {
      sp_dijkstra(g, s, ws, engine);
      EXPECT_EQ(ws.export_dist(), want);

      sp_multi_source(g, sources, ws, engine);
      EXPECT_EQ(ws.export_dist(), want_ms_dist);
      EXPECT_EQ(ws.export_owner(), want_ms_owner);

      sp_dijkstra_min_hops(g, s, ws, engine);
      EXPECT_EQ(ws.export_dist(), want_mh_dist);
      EXPECT_EQ(ws.export_hops(), want_mh_hops);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SpKernelSweep,
    ::testing::Combine(
        // wmax = 0: all-zero weights; 1: BFS-like ties everywhere; 12:
        // corpus-like; 70000: beyond the bucket auto-limit (heap territory,
        // but the bucket engine must still be correct when forced).
        ::testing::Values(Weight{0}, Weight{1}, Weight{12}, Weight{70000}),
        ::testing::Values(std::uint64_t{1}, std::uint64_t{2},
                          std::uint64_t{3})));

TEST(SpKernel, HeapEngineHandlesHugeWeights) {
  const Graph g = awkward_graph(80, 240, 70000, 9);
  EXPECT_EQ(select_engine(g), SpEngine::kHeap);
  SpWorkspace ws;
  for (const NodeId s : {NodeId{0}, NodeId{17}, NodeId{42}}) {
    sp_dijkstra(g, s, ws, SpEngine::kHeap);
    EXPECT_EQ(ws.export_dist(), ref_dijkstra(g, s));
  }
}

TEST(SpKernel, EngineSelectionFollowsMaxWeight) {
  EXPECT_EQ(select_engine(awkward_graph(16, 30, 12, 1)), SpEngine::kBucket);
  EXPECT_EQ(select_engine(awkward_graph(16, 30, 70000, 1)), SpEngine::kHeap);
  // Explicit requests win over the weight rule.
  EXPECT_EQ(select_engine(awkward_graph(16, 30, 12, 1), SpEngine::kHeap),
            SpEngine::kHeap);
}

TEST(SpKernel, HopBfsMatchesReference) {
  const Graph g = awkward_graph(100, 300, 12, 5);
  SpWorkspace ws;
  sp_hop_bfs(g, 3, ws);
  // Reference: dijkstra on the unweighted view of the same graph.
  std::vector<Edge> unit = g.edges();
  for (Edge& e : unit) e.weight = 1;
  const Graph ug = Graph::from_edges(g.num_nodes(), unit);
  const std::vector<Dist> want = ref_dijkstra(ug, 3);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(static_cast<Dist>(ws.hops(u)), want[u]);
  }
}

TEST(SpKernel, WorkspaceSurvivesGraphSizeChanges) {
  SpWorkspace ws;
  const Graph big = awkward_graph(200, 600, 9, 11);
  const Graph small = awkward_graph(20, 60, 9, 12);
  sp_dijkstra(big, 0, ws);
  EXPECT_EQ(ws.export_dist(), ref_dijkstra(big, 0));
  sp_dijkstra(small, 5, ws);  // shrinking n must not leak stale entries
  EXPECT_EQ(ws.export_dist(), ref_dijkstra(small, 5));
  sp_dijkstra(big, 7, ws);
  EXPECT_EQ(ws.export_dist(), ref_dijkstra(big, 7));
}

TEST(SpKernel, ThrowingVisitGateDoesNotPoisonTheWorkspace) {
  // An admit predicate that throws mid-drain must not leave frontier
  // entries behind in the workspace's persistent bucket slots; the next
  // search on the same workspace, plain or pruned, has to be exact.
  const Graph g = awkward_graph(100, 300, 7, 31);
  const std::vector<Dist> exact = ref_dijkstra(g, 9);
  SpWorkspace ws;
  for (const SpEngine engine : {SpEngine::kBucket, SpEngine::kHeap}) {
    int asked = 0;
    EXPECT_THROW(
        sp_pruned_dijkstra(g, 0, ws,
                           [&](NodeId, Dist) -> bool {
                             if (++asked == 5) throw std::runtime_error("x");
                             return true;
                           },
                           engine),
        std::runtime_error);
    sp_dijkstra(g, 9, ws, engine);
    EXPECT_EQ(ws.export_dist(), exact);
    EXPECT_THROW(
        sp_pruned_dijkstra(g, 0, ws,
                           [&](NodeId, Dist) -> bool {
                             if (++asked == 12) throw std::runtime_error("x");
                             return true;
                           },
                           engine),
        std::runtime_error);
    sp_pruned_dijkstra(g, 9, ws, [](NodeId, Dist) { return true; }, engine);
    EXPECT_EQ(ws.export_dist(), exact);
  }
}

TEST(SpKernel, PrunedSearchVisitsExactlyTheBall) {
  // Admit only distances <= 1 (the graph's distances from node 4 reach
  // 6, with zero-weight ties at the radius). The ball {x : d(s,x) <= 1}
  // is closed under shortest paths, so the search must reach exactly the
  // ball, at exact distances, and the admitted nodes must be the reached
  // ones. A node outside the ball is refused at every candidate distance,
  // so it is never stamped: a gate asked only when a node settles would
  // leave the ball's boundary reached.
  const Graph g = awkward_graph(150, 500, 5, 21);
  const std::vector<Dist> exact = ref_dijkstra(g, 4);
  for (const SpEngine engine : {SpEngine::kBucket, SpEngine::kHeap}) {
    SpWorkspace ws;
    std::vector<NodeId> admitted;
    sp_pruned_dijkstra(g, 4, ws, [&](NodeId x, Dist d) {
      if (d > 1) return false;
      admitted.push_back(x);
      return true;
    }, engine);
    std::size_t want_count = 0;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      const bool inside = exact[u] <= 1;
      want_count += inside;
      EXPECT_EQ(ws.reached(u), inside) << "node " << u;
      if (inside) {
        EXPECT_EQ(ws.dist(u), exact[u]) << "node " << u;
      }
    }
    ASSERT_GT(want_count, 1u);
    ASSERT_LT(want_count, g.num_nodes());
    std::sort(admitted.begin(), admitted.end());
    EXPECT_EQ(std::adjacent_find(admitted.begin(), admitted.end()),
              admitted.end());
    EXPECT_EQ(admitted.size(), want_count);
  }
}

TEST(SpKernel, RefusedSourceSettlesNothing) {
  // With zero-weight edges a TZ phase source can tie its own gate; the
  // predicate is asked at the source too, and a refused source leaves the
  // search empty, even when its neighbours would be admitted.
  const Graph g = awkward_graph(120, 400, 0, 41);
  for (const SpEngine engine : {SpEngine::kBucket, SpEngine::kHeap}) {
    SpWorkspace ws;
    sp_dijkstra(g, 0, ws, engine);  // stamps left by an earlier search
    std::vector<NodeId> asked;
    sp_pruned_dijkstra(g, 7, ws, [&](NodeId x, Dist) {
      asked.push_back(x);
      return x != 7;
    }, engine);
    EXPECT_EQ(asked, std::vector<NodeId>{7});
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      EXPECT_FALSE(ws.reached(u)) << "node " << u;
    }
  }
}

}  // namespace
}  // namespace dsketch
