#include "dynamics/update_stream.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "graph/generators.hpp"
#include "graph/shortest_paths.hpp"
#include "serve/sketch_store.hpp"
#include "sketch/stretch_eval.hpp"

namespace dsketch {
namespace {

Graph base_graph(NodeId n = 64) { return erdos_renyi(n, 0.1, {1, 9}, 11); }

UpdateStreamConfig delete_only(std::uint64_t seed) {
  return {.insert_weight = 0, .reweight_weight = 0, .seed = seed};
}

/// E11's edge-failure model: advances a delete-only stream to
/// floor(fraction x m) failed edges of `g`, stopping early once only a
/// spanning tree is left. Every update must delete one edge and keep
/// the graph connected (so no bridge ever fails).
void fail_edges(UpdateStream& stream, const Graph& g, double fraction) {
  const auto target = static_cast<std::uint64_t>(
      fraction * static_cast<double>(g.num_edges()));
  while (stream.applied() < target &&
         stream.graph().num_edges() >= g.num_nodes()) {
    const std::size_t before = stream.graph().num_edges();
    ASSERT_EQ(stream.next().kind, UpdateKind::kDelete);
    ASSERT_EQ(stream.graph().num_edges(), before - 1);
    ASSERT_TRUE(stream.graph().connected());
  }
}

std::uint64_t pair_key(NodeId u, NodeId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

TEST(UpdateStream, SameSeedSameStream) {
  const Graph g = base_graph();
  UpdateStreamConfig cfg;
  cfg.seed = 42;
  UpdateStream a(g, cfg);
  UpdateStream b(g, cfg);
  for (int i = 0; i < 50; ++i) {
    const EdgeUpdate ua = a.next();
    const EdgeUpdate ub = b.next();
    EXPECT_EQ(ua.kind, ub.kind);
    EXPECT_EQ(ua.u, ub.u);
    EXPECT_EQ(ua.v, ub.v);
    EXPECT_EQ(ua.weight, ub.weight);
    EXPECT_EQ(ua.old_weight, ub.old_weight);
  }
  EXPECT_EQ(a.graph().num_edges(), b.graph().num_edges());

  cfg.seed = 43;
  UpdateStream c(g, cfg);
  bool any_different = false;
  UpdateStream a2(g, UpdateStreamConfig{.seed = 42});
  for (int i = 0; i < 50 && !any_different; ++i) {
    const EdgeUpdate uc = c.next();
    const EdgeUpdate ua = a2.next();
    any_different = uc.kind != ua.kind || uc.u != ua.u || uc.v != ua.v ||
                    uc.weight != ua.weight;
  }
  EXPECT_TRUE(any_different);
}

TEST(UpdateStream, UpdatesAreConsistentWithTheTrackedEdgeSet) {
  const Graph g = base_graph();
  std::set<std::uint64_t> edges;
  std::map<std::uint64_t, Weight> weight;
  for (const Edge& e : g.edges()) {
    edges.insert(pair_key(e.u, e.v));
    weight[pair_key(e.u, e.v)] = e.weight;
  }
  UpdateStream stream(g, {.wmin = 1, .wmax = 9, .seed = 3});
  for (int i = 0; i < 200; ++i) {
    const EdgeUpdate up = stream.next();
    const std::uint64_t key = pair_key(up.u, up.v);
    switch (up.kind) {
      case UpdateKind::kInsert:
        EXPECT_EQ(edges.count(key), 0u) << "inserted an existing edge";
        EXPECT_NE(up.u, up.v);
        EXPECT_GE(up.weight, 1u);
        EXPECT_LE(up.weight, 9u);
        edges.insert(key);
        weight[key] = up.weight;
        break;
      case UpdateKind::kDelete:
        EXPECT_EQ(edges.count(key), 1u) << "deleted a missing edge";
        EXPECT_EQ(up.old_weight, weight[key]);
        edges.erase(key);
        weight.erase(key);
        break;
      case UpdateKind::kReweight:
        EXPECT_EQ(edges.count(key), 1u) << "reweighted a missing edge";
        EXPECT_EQ(up.old_weight, weight[key]);
        EXPECT_NE(up.weight, up.old_weight);
        weight[key] = up.weight;
        break;
    }
  }
  // The stream's graph mirrors the tracked set exactly.
  EXPECT_EQ(stream.graph().num_edges(), edges.size());
  for (const Edge& e : stream.graph().edges()) {
    const auto it = weight.find(pair_key(e.u, e.v));
    ASSERT_NE(it, weight.end());
    EXPECT_EQ(e.weight, it->second);
  }
  EXPECT_EQ(stream.applied(), 200u);
}

TEST(UpdateStream, GraphStaysConnectedUnderHeavyDeletes) {
  const Graph g = base_graph(48);
  UpdateStreamConfig cfg;
  cfg.insert_weight = 0.1;
  cfg.delete_weight = 2.0;
  cfg.reweight_weight = 0.1;
  cfg.seed = 5;
  UpdateStream stream(g, cfg);
  for (int i = 0; i < 100; ++i) {
    stream.next();
    if (i % 20 == 19) EXPECT_TRUE(stream.graph().connected());
  }
  EXPECT_TRUE(stream.graph().connected());
}

TEST(UpdateStream, PureMixesProduceOnlyThatKind) {
  const Graph g = base_graph();
  UpdateStreamConfig inserts_only;
  inserts_only.delete_weight = 0;
  inserts_only.reweight_weight = 0;
  UpdateStream ins(g, inserts_only);
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(ins.next().kind, UpdateKind::kInsert);
  }

  UpdateStreamConfig reweight_only;
  reweight_only.insert_weight = 0;
  reweight_only.delete_weight = 0;
  UpdateStream rw(g, reweight_only);
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(rw.next().kind, UpdateKind::kReweight);
  }
}

TEST(UpdateStream, InfeasibleKindFallsThrough) {
  // A triangle where every edge is load-bearing after one delete: a
  // delete-only stream must still produce *something* (falling through
  // to insert/reweight) rather than stalling.
  const Graph tri = Graph::from_edges(
      3, {{0, 1, 1}, {1, 2, 1}, {0, 2, 1}});
  UpdateStreamConfig cfg;
  cfg.insert_weight = 0;
  cfg.delete_weight = 1;
  cfg.reweight_weight = 0;
  cfg.wmin = 1;
  cfg.wmax = 4;
  UpdateStream stream(tri, cfg);
  // First delete turns the triangle into a path (both remaining edges
  // bridges); subsequent updates must fall through, and the graph must
  // stay connected throughout.
  for (int i = 0; i < 10; ++i) {
    stream.next();
    EXPECT_TRUE(stream.graph().connected());
  }
}

TEST(UpdateStream, DeletesDrawWithoutReplacementPastBridges) {
  // A 200-node path plus the chord (197, 199): only the triangle's three
  // edges may be deleted. Independent rerolls mostly miss them; drawing
  // without replacement finds one on every seed.
  std::vector<Edge> edges = path(200, {1, 5}, 1).edges();
  edges.push_back({197, 199, 3});
  const Graph g = Graph::from_edges(200, edges);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    UpdateStream stream(g, delete_only(seed));
    const EdgeUpdate update = stream.next();
    EXPECT_EQ(update.kind, UpdateKind::kDelete) << "seed " << seed;
    EXPECT_GE(std::min(update.u, update.v), 197u) << "seed " << seed;
    EXPECT_TRUE(stream.graph().connected());
  }
}

TEST(UpdateStream, DistanceDecreaseClassification) {
  EdgeUpdate insert{UpdateKind::kInsert, 0, 1, 5, 0};
  EdgeUpdate del{UpdateKind::kDelete, 0, 1, 0, 5};
  EdgeUpdate down{UpdateKind::kReweight, 0, 1, 2, 5};
  EdgeUpdate up{UpdateKind::kReweight, 0, 1, 7, 5};
  EXPECT_TRUE(is_distance_decrease(insert));
  EXPECT_FALSE(is_distance_decrease(del));
  EXPECT_TRUE(is_distance_decrease(down));
  EXPECT_FALSE(is_distance_decrease(up));
  EXPECT_STREQ(update_kind_name(UpdateKind::kInsert), "insert");
  EXPECT_STREQ(update_kind_name(UpdateKind::kDelete), "delete");
  EXPECT_STREQ(update_kind_name(UpdateKind::kReweight), "reweight");
}

TEST(FailureModel, PlanRespectsFractionAndConnectivity) {
  const Graph g = erdos_renyi(200, 0.05, {1, 9}, 3);
  UpdateStream stream(g, delete_only(7));
  fail_edges(stream, g, 0.2);
  EXPECT_EQ(stream.applied(), static_cast<std::uint64_t>(
                                 0.2 * static_cast<double>(g.num_edges())));
  EXPECT_GT(stream.applied(), 0u);
  EXPECT_EQ(stream.graph().num_edges(), g.num_edges() - stream.applied());
}

TEST(FailureModel, BridgesSurvive) {
  // A path: every edge is a bridge, so the delete-only stream cannot
  // delete and falls through to another kind.
  const Graph g = path(30, {1, 5}, 1);
  UpdateStream stream(g, delete_only(3));
  EXPECT_NE(stream.next().kind, UpdateKind::kDelete);
  EXPECT_TRUE(stream.graph().connected());
  EXPECT_GE(stream.graph().num_edges(), g.num_edges());
}

TEST(FailureModel, DistancesOnlyGrowAfterFailures) {
  const Graph g = erdos_renyi(100, 0.08, {1, 9}, 9);
  UpdateStream stream(g, delete_only(5));
  fail_edges(stream, g, 0.3);
  const auto before = dijkstra(g, 0);
  const auto after = dijkstra(stream.graph(), 0);
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
  UpdateStream stream(g, delete_only(3));
  fail_edges(stream, g, 0.3);
  const Graph& degraded = stream.graph();
  const StretchReport report = evaluate_stretch(
      degraded, SampledGroundTruth(degraded, 10, 7), sketches, {});
  EXPECT_GT(report.all.count(), 0u);
  // Some pair's estimate now routes through a dead edge.
  EXPECT_GT(report.underestimates, 0u);
}

TEST(FailureModel, RebuiltSketchesRestoreGuarantee) {
  const Graph g = erdos_renyi(150, 0.06, {1, 9}, 17);
  UpdateStream stream(g, delete_only(9));
  fail_edges(stream, g, 0.25);
  const Graph& degraded = stream.graph();
  BuildConfig cfg;
  cfg.scheme = Scheme::kThorupZwick;
  cfg.k = 2;
  const SketchStore rebuilt(degraded, cfg);
  const StretchReport report = evaluate_stretch(
      degraded, SampledGroundTruth(degraded, 10, 7), rebuilt, {});
  EXPECT_EQ(report.underestimates, 0u);
  EXPECT_LE(report.max_stretch(), 3.0);
}

class FailureSweep : public ::testing::TestWithParam<double> {};

TEST_P(FailureSweep, DegradedGraphStaysConnected) {
  const double fraction = GetParam();
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const Graph g = random_graph_nm(120, 360, {1, 9}, seed);
    UpdateStream stream(g, delete_only(seed + 5));
    fail_edges(stream, g, fraction);
    // Down to floor(fraction x m) edges failed, but never below a
    // spanning tree (at 0.7 the stream stops at n - 1 edges).
    const auto target = static_cast<std::size_t>(
        fraction * static_cast<double>(g.num_edges()));
    EXPECT_EQ(stream.graph().num_edges(),
              std::max<std::size_t>(g.num_edges() - target,
                                    g.num_nodes() - 1));
  }
}

INSTANTIATE_TEST_SUITE_P(Fractions, FailureSweep,
                         ::testing::Values(0.05, 0.2, 0.5, 0.7));

}  // namespace
}  // namespace dsketch
