#include "dynamics/incremental.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "dynamics/update_stream.hpp"
#include "graph/generators.hpp"
#include "graph/shortest_paths.hpp"
#include "sketch/stretch_eval.hpp"
#include "util/rng.hpp"

namespace dsketch {
namespace {

Graph base_graph(NodeId n = 48) { return erdos_renyi(n, 0.12, {1, 8}, 19); }

/// True distance check over every pair against a snapshot oracle.
void expect_one_sided(const Graph& g, const DistanceOracle& oracle) {
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const std::vector<Dist> truth = dijkstra(g, u);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (u == v) continue;
      EXPECT_GE(oracle.query(u, v), truth[v])
          << "underestimate for (" << u << ", " << v << ")";
    }
  }
}

TEST(TzLabelOracle, MatchesTzQueryAndReportsCapabilities) {
  const Graph g = base_graph();
  TzDynamicSketch sketch(g, 2, 7);
  const std::shared_ptr<const DistanceOracle> oracle = sketch.snapshot();
  EXPECT_EQ(oracle->num_nodes(), g.num_nodes());
  EXPECT_EQ(oracle->scheme(), "tz");
  for (NodeId u = 0; u < g.num_nodes(); u += 3) {
    for (NodeId v = 0; v < g.num_nodes(); v += 5) {
      EXPECT_EQ(oracle->query(u, v),
                tz_query(sketch.labels().view(u), sketch.labels().view(v)));
    }
  }
  const Capabilities caps = oracle->capabilities();
  EXPECT_TRUE(caps.supports_paths);
  EXPECT_FALSE(caps.supports_save);
  EXPECT_FALSE(caps.build_cost_available);
  EXPECT_FALSE(caps.symmetric);  // TZ pivot walk is orientation-dependent
}

TEST(TzDynamicSketch, FreshBuildIsExactPerEntryAndNeverUnderestimates) {
  const Graph g = base_graph();
  TzDynamicSketch sketch(g, 3, 7);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const std::vector<Dist> truth = dijkstra(g, u);
    const LabelView label = sketch.labels().view(u);
    for (std::uint32_t i = 0; i < label.levels; ++i) {
      const DistKey& p = label.pivot(i);
      if (p.id == kInvalidNode) continue;
      EXPECT_EQ(p.dist, truth[p.id]);
    }
    for (std::uint32_t j = 0; j < label.count; ++j) {
      const BunchEntry e = label.entry(j);
      EXPECT_EQ(e.dist, truth[e.node]);
    }
  }
  expect_one_sided(g, *sketch.snapshot());
}

TEST(TzDynamicSketch, RepairKeepsEntriesExactUnderInsertsAndDecreases) {
  // Hand-built pure-decrease churn (inserts + weight decreases only —
  // the repairable class): after every repair, each stored label
  // distance must equal the exact distance on the updated graph, and
  // the one-sided guarantee must hold throughout.
  const Graph g = base_graph();
  std::vector<Edge> edges = g.edges();
  TzDynamicSketch sketch(g, 2, 7);
  Rng rng(23);
  Graph current = g;
  std::size_t applied = 0;
  for (int i = 0; i < 40; ++i) {
    EdgeUpdate update;
    const bool decrease = rng.bernoulli(0.5);
    if (decrease) {
      // Pick an edge with weight > 1 and shrink it.
      const std::size_t start = rng.below(edges.size());
      std::size_t j = start;
      while (edges[j].weight <= 1) {
        j = (j + 1) % edges.size();
        if (j == start) break;
      }
      if (edges[j].weight <= 1) continue;
      update.kind = UpdateKind::kReweight;
      update.u = edges[j].u;
      update.v = edges[j].v;
      update.old_weight = edges[j].weight;
      update.weight = static_cast<Weight>(
          rng.range(1, static_cast<std::int64_t>(edges[j].weight) - 1));
      edges[j].weight = update.weight;
    } else {
      const auto u = static_cast<NodeId>(rng.below(g.num_nodes()));
      const auto v = static_cast<NodeId>(rng.below(g.num_nodes()));
      if (u == v) continue;
      bool exists = false;
      for (const Edge& e : edges) {
        if ((e.u == std::min(u, v)) && (e.v == std::max(u, v))) {
          exists = true;
          break;
        }
      }
      if (exists) continue;
      update.kind = UpdateKind::kInsert;
      update.u = std::min(u, v);
      update.v = std::max(u, v);
      update.weight = static_cast<Weight>(rng.range(1, 8));
      edges.push_back({update.u, update.v, update.weight});
    }
    current = Graph::from_edges(g.num_nodes(), edges);
    ASSERT_TRUE(is_distance_decrease(update));
    ASSERT_TRUE(sketch.apply(current, update));
    ++applied;
  }
  ASSERT_GT(applied, 15u);
  EXPECT_EQ(sketch.unrepaired_since_rebuild(), 0u);

  for (NodeId u = 0; u < current.num_nodes(); ++u) {
    const std::vector<Dist> truth = dijkstra(current, u);
    const LabelView label = sketch.labels().view(u);
    for (std::uint32_t i = 0; i < label.levels; ++i) {
      const DistKey& p = label.pivot(i);
      if (p.id == kInvalidNode) continue;
      EXPECT_EQ(p.dist, truth[p.id]) << "pivot at node " << u;
    }
    for (std::uint32_t j = 0; j < label.count; ++j) {
      const BunchEntry e = label.entry(j);
      EXPECT_EQ(e.dist, truth[e.node])
          << "bunch entry (" << u << " -> " << e.node << ")";
    }
  }
  expect_one_sided(current, *sketch.snapshot());
}

TEST(TzDynamicSketch, RepairOnlyTightensEstimates) {
  const Graph g = base_graph();
  UpdateStreamConfig cfg;
  cfg.delete_weight = 0;
  cfg.reweight_weight = 0;  // pure inserts
  cfg.seed = 31;
  UpdateStream stream(g, cfg);
  TzDynamicSketch stale(g, 2, 7);
  TzDynamicSketch repaired(g, 2, 7);  // same seed: identical labels
  for (int i = 0; i < 25; ++i) {
    const EdgeUpdate update = stream.next();
    ASSERT_TRUE(repaired.apply(stream.graph(), update));
  }
  const auto stale_oracle = stale.snapshot();
  const auto repaired_oracle = repaired.snapshot();
  std::size_t strictly_tighter = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const Dist rs = repaired_oracle->query(u, v);
      const Dist ss = stale_oracle->query(u, v);
      EXPECT_LE(rs, ss);
      if (rs < ss) ++strictly_tighter;
    }
  }
  // 25 inserts into a 48-node graph must shorten something.
  EXPECT_GT(strictly_tighter, 0u);
  EXPECT_GT(repaired.stats().entries_improved, 0u);
}

TEST(TzDynamicSketch, DeletesAreUnrepairableUntilRebuild) {
  const Graph g = base_graph();
  UpdateStreamConfig cfg;
  cfg.insert_weight = 0;
  cfg.reweight_weight = 0;  // pure deletes
  cfg.seed = 13;
  UpdateStream stream(g, cfg);
  TzDynamicSketch sketch(g, 2, 7);
  for (int i = 0; i < 12; ++i) {
    const EdgeUpdate update = stream.next();
    EXPECT_FALSE(sketch.apply(stream.graph(), update));
  }
  EXPECT_EQ(sketch.unrepaired_since_rebuild(), 12u);
  EXPECT_EQ(sketch.stats().unrepairable, 12u);

  // The stale sketch underestimates on the degraded graph ...
  const auto stale = sketch.snapshot();
  const StretchReport before =
      evaluate_stretch(stream.graph(), SampledGroundTruth(stream.graph(), 8, 3),
                       *stale, {});
  // (12 deletions from a 48-node graph: some estimate should now route
  // through a dead edge — if not, the graph was too redundant and the
  // test would be vacuous.)
  EXPECT_GT(before.underestimates, 0u);

  // ... and a rebuild clears the debt and the violations.
  sketch.rebuild(stream.graph(), 99);
  EXPECT_EQ(sketch.unrepaired_since_rebuild(), 0u);
  EXPECT_EQ(sketch.stats().rebuilds, 1u);
  expect_one_sided(stream.graph(), *sketch.snapshot());
}

TEST(RebuildPolicy, UpdateCountBudgetFires) {
  const Graph g = base_graph(24);
  TzDynamicSketch sketch(g, 2, 7);
  const auto oracle = sketch.snapshot();
  RebuildPolicyConfig cfg;
  cfg.max_updates = 5;
  RebuildPolicy policy(cfg);
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(policy.note_update(g, *oracle, true));
  }
  EXPECT_TRUE(policy.note_update(g, *oracle, true));
  policy.note_rebuilt();
  EXPECT_EQ(policy.updates_since_rebuild(), 0u);
  EXPECT_FALSE(policy.note_update(g, *oracle, true));
}

TEST(RebuildPolicy, UnrepairedBudgetFiresOnlyOnUnrepairedUpdates) {
  const Graph g = base_graph(24);
  TzDynamicSketch sketch(g, 2, 7);
  const auto oracle = sketch.snapshot();
  RebuildPolicyConfig cfg;
  cfg.max_unrepaired = 3;
  RebuildPolicy policy(cfg);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(policy.note_update(g, *oracle, /*repaired=*/true));
  }
  EXPECT_FALSE(policy.note_update(g, *oracle, false));
  EXPECT_FALSE(policy.note_update(g, *oracle, false));
  EXPECT_TRUE(policy.note_update(g, *oracle, false));
}

TEST(RebuildPolicy, ProbeTriggersOnUnderestimateRate) {
  // Serve a sketch built for the healthy graph against a heavily
  // degraded one: the probed underestimate rate must cross a tiny
  // threshold and fire.
  const Graph g = base_graph();
  TzDynamicSketch sketch(g, 2, 7);
  const auto stale = sketch.snapshot();
  UpdateStream failures(
      g, {.insert_weight = 0, .reweight_weight = 0, .seed = 5});
  while (failures.applied() < static_cast<std::uint64_t>(0.3 * g.num_edges())) {
    ASSERT_EQ(failures.next().kind, UpdateKind::kDelete);
  }
  const Graph& degraded = failures.graph();

  RebuildPolicyConfig cfg;
  cfg.max_underestimate_rate = 1e-6;
  cfg.probe_every = 1;
  cfg.probe_sources = 8;
  RebuildPolicy policy(cfg);
  EXPECT_TRUE(policy.note_update(degraded, *stale, false));
  EXPECT_EQ(policy.probes_run(), 1u);
  EXPECT_GT(policy.last_probed_rate(), 0.0);

  // A fresh sketch for the degraded graph probes clean.
  TzDynamicSketch fresh(degraded, 2, 7);
  const auto fresh_oracle = fresh.snapshot();
  RebuildPolicy policy2(cfg);
  EXPECT_FALSE(policy2.note_update(degraded, *fresh_oracle, false));
  EXPECT_EQ(policy2.last_probed_rate(), 0.0);
}

}  // namespace
}  // namespace dsketch
