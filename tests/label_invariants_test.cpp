// The label invariants every construction must meet, checked on every
// record each one builds: the centralized TZ build, the in-network build
// under each termination mode, and the CDG and graceful builds (whose
// records carry the net node's TZ label).
//   - each record passes the strict check a store load applies
//     (LabelView::valid: in-range widths, strictly increasing bunch ids);
//   - each defined pivot p_i(u) is a bunch member at the pivot distance,
//     so bunch_dist(p_i(u)) == d(u, p_i(u));
//   - the wire format ships exactly the words the paper charges:
//     serialize_label(v) holds 2 + v.size_words() words and reads back
//     to the same label.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "graph/generators.hpp"
#include "sketch/cdg_sketch.hpp"
#include "sketch/graceful_sketch.hpp"
#include "sketch/hierarchy.hpp"
#include "sketch/tz_centralized.hpp"
#include "sketch/tz_distributed.hpp"

namespace dsketch {
namespace {

Graph test_graph() { return erdos_renyi(160, 0.04, {1, 12}, 23); }

/// The pivot and wire invariants of one label.
void expect_label_invariants(const LabelView& v) {
  for (std::uint32_t i = 0; i < v.levels; ++i) {
    const DistKey p = v.pivot(i);
    if (p.id == kInvalidNode) continue;
    EXPECT_EQ(v.bunch_dist(p.id), p.dist)
        << "label of " << v.owner << ", pivot " << i;
  }
  const std::vector<Word> wire = serialize_label(v);
  EXPECT_EQ(wire.size(), 2 + v.size_words()) << "label of " << v.owner;
  EXPECT_TRUE(deserialize_label(v.owner, wire).view() == v)
      << "label of " << v.owner;
}

void expect_arena_invariants(const LabelArena& labels) {
  for (NodeId u = 0; u < labels.num_nodes(); ++u) {
    ASSERT_TRUE(LabelView::valid(labels.slab().record(u),
                                 labels.slab().record_size(u)))
        << "record of " << u;
    expect_label_invariants(labels.view(u));
  }
}

void expect_cdg_invariants(const CdgSketchSet& sketches) {
  const RecordSlab& records = sketches.records();
  for (NodeId u = 0; u < sketches.num_nodes(); ++u) {
    ASSERT_TRUE(CdgRecord::valid(records.record(u), records.record_size(u)))
        << "record of " << u;
    expect_label_invariants(sketches.sketch(u).label);
  }
}

TEST(LabelInvariants, CentralizedBuild) {
  const Graph g = test_graph();
  for (std::uint32_t k = 1; k <= 4; ++k) {
    SCOPED_TRACE("k " + std::to_string(k));
    expect_arena_invariants(
        build_tz_centralized(g, Hierarchy::sample(g.num_nodes(), k, 5)));
  }
}

TEST(LabelInvariants, InNetworkBuildUnderEveryTerminationMode) {
  const Graph g = test_graph();
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), 3, 5);
  for (const TerminationMode mode :
       {TerminationMode::kOracle, TerminationMode::kEcho,
        TerminationMode::kKnownS}) {
    SCOPED_TRACE("mode " + std::to_string(static_cast<int>(mode)));
    expect_arena_invariants(build_tz_distributed(g, h, mode).labels);
  }
}

TEST(LabelInvariants, CdgBuild) {
  CdgConfig cfg;
  cfg.epsilon = 0.2;
  cfg.k = 2;
  cfg.seed = 3;
  expect_cdg_invariants(build_cdg_sketches(test_graph(), cfg).sketches);
}

TEST(LabelInvariants, GracefulBuild) {
  const GracefulBuildResult r = build_graceful_sketches(test_graph(), {});
  ASSERT_GT(r.sketches.num_levels(), 0u);
  for (std::size_t i = 0; i < r.sketches.num_levels(); ++i) {
    SCOPED_TRACE("level " + std::to_string(i));
    expect_cdg_invariants(r.sketches.level(i));
  }
}

}  // namespace
}  // namespace dsketch
