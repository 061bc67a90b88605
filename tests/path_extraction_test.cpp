#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <tuple>

#include "baselines/exact_oracle.hpp"
#include "dynamics/incremental.hpp"
#include "graph/generators.hpp"
#include "serve/sketch_store.hpp"
#include "sketch/path_extraction.hpp"
#include "sketch/tz_centralized.hpp"
#include "sketch/tz_distributed.hpp"
#include "test_paths.hpp"

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
      const BunchEntry e = lu.entry(j);
      const auto path = route_to_target(g, r.labels, u, e.node);
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
  const auto path = route_to_target(g, r.labels, 4, 4);
  EXPECT_EQ(path, std::vector<NodeId>{4});
}

TEST(PathExtraction, EndToEndPathMatchesQueryEstimate) {
  const Graph g = erdos_renyi(100, 0.06, {1, 9}, 11);
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), 3, 13);
  const auto r = build_tz_distributed(g, h, TerminationMode::kOracle);
  for (NodeId u = 0; u < g.num_nodes(); u += 4) {
    for (NodeId v = u + 1; v < g.num_nodes(); v += 5) {
      const ApproxPath p = extract_approximate_path(g, r.labels, u, v);
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
      const ApproxPath p = extract_approximate_path(g, r.labels, u, v);
      EXPECT_LE(p.weight, (2 * k - 1) * oracle.query(u, v));
      EXPECT_GE(p.weight, oracle.query(u, v));
    }
  }
}

TEST(PathExtraction, WitnessIsInBothBunchesOrPivotChain) {
  const Graph g = random_tree(60, {1, 7}, 9);
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), 2, 11);
  const auto r = build_tz_distributed(g, h, TerminationMode::kOracle);
  const ApproxPath p = extract_approximate_path(g, r.labels, 3, 42);
  ASSERT_NE(p.witness, kInvalidNode);
  // The witness must appear on the extracted path.
  EXPECT_NE(std::find(p.nodes.begin(), p.nodes.end(), p.witness),
            p.nodes.end());
}

TEST(PathExtraction, SameNode) {
  const Graph g = ring(10, {1, 1}, 0);
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), 2, 1);
  const auto r = build_tz_distributed(g, h, TerminationMode::kOracle);
  const ApproxPath p = extract_approximate_path(g, r.labels, 5, 5);
  EXPECT_EQ(p.nodes, std::vector<NodeId>{5});
  EXPECT_EQ(p.weight, 0u);
}

/// Every route to a bunch member weighs exactly the bunch distance, and
/// every sampled pair's path weighs exactly tz_query. Returns the path
/// weights so label sets can be compared.
std::vector<Dist> expect_exact_walks(const Graph& g, const LabelArena& labels) {
  for (NodeId u = 0; u < g.num_nodes(); u += 3) {
    const LabelView lu = labels.view(u);
    for (std::uint32_t j = 0; j < lu.count; ++j) {
      const auto path = route_to_target(g, labels, u, lu.entry(j).node);
      EXPECT_FALSE(path.empty()) << u << " -> " << lu.entry(j).node;
      EXPECT_EQ(path_weight(g, path), lu.entry(j).dist);
    }
  }
  std::vector<Dist> weights;
  for (NodeId u = 0; u < g.num_nodes(); u += 4) {
    for (NodeId v = u + 1; v < g.num_nodes(); v += 5) {
      const ApproxPath p = extract_approximate_path(g, labels, u, v);
      EXPECT_FALSE(p.nodes.empty()) << u << "," << v;
      EXPECT_EQ(p.weight, tz_query(labels.view(u), labels.view(v)));
      weights.push_back(p.weight);
    }
  }
  return weights;
}

TEST(PathExtraction, CentralizedAndLoadedLabelsRouteLikeInNetwork) {
  // Forwarding is read off the labels, so any label set of one hierarchy
  // routes alike: in-network, centralized, or loaded from a v4 file. The
  // unit-weight grid has many equal-length paths (ties).
  const std::uint32_t k = 3;
  for (const Graph& g : {erdos_renyi(150, 0.05, {1, 9}, 21),
                         grid2d(12, 12, {1, 1}, 0)}) {
    const Hierarchy h = Hierarchy::sample(g.num_nodes(), k, 22);
    const auto r = build_tz_distributed(g, h, TerminationMode::kEcho);
    const LabelArena central = build_tz_centralized(g, h);
    const TempPath path = unique_temp_path("labels.store");
    SketchStore::from_oracle(TzLabelOracle(central, k)).save_file(path);
    const SketchStore loaded = SketchStore::load_file(path);

    const std::vector<Dist> in_network = expect_exact_walks(g, r.labels);
    EXPECT_EQ(expect_exact_walks(g, central), in_network);
    EXPECT_EQ(expect_exact_walks(g, loaded.payload().tz), in_network);
  }
}

TEST(PathExtraction, QuarantinedRecordGivesNoPathNotAnAbort) {
  const std::uint32_t k = 3;
  const Graph g = erdos_renyi(120, 0.05, {1, 9}, 31);
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), k, 32);
  const LabelArena labels = build_tz_centralized(g, h);
  // The busiest node: the most walks pass next to it.
  NodeId victim = 0;
  for (NodeId u = 1; u < g.num_nodes(); ++u) {
    if (g.degree(u) > g.degree(victim)) victim = u;
  }

  // Save, then set the victim's level count to 127. In a meta-free tz
  // segment the u64 offset table starts at byte 4096 and the record blob
  // at the next 4096-byte boundary after its n+1 entries.
  const TempPath path = unique_temp_path("damaged.store");
  SketchStore::from_oracle(TzLabelOracle(labels, k)).save_file(path);
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    char raw[8];
    f.seekg(4096 + 8 * std::streamoff{victim});
    f.read(raw, 8);
    std::uint64_t offset = 0;
    for (int i = 7; i >= 0; --i) {
      offset = (offset << 8) | static_cast<std::uint8_t>(raw[i]);
    }
    const std::size_t table_end = 4096 + 8 * (std::size_t{g.num_nodes()} + 1);
    const std::size_t blob = (table_end + 4095) / 4096 * 4096;
    f.seekp(static_cast<std::streamoff>(blob + offset));
    f.put(static_cast<char>(0x7f));
  }
  const SketchStore::Recovery rec = SketchStore::recover_file(path);
  ASSERT_EQ(rec.quarantined, std::vector<NodeId>{victim});
  const LabelArena& damaged = rec.store.payload().tz;

  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (v == victim) continue;
    for (const ApproxPath& p : {extract_approximate_path(g, damaged, victim, v),
                                extract_approximate_path(g, damaged, v, victim)}) {
      EXPECT_TRUE(p.nodes.empty());
      EXPECT_EQ(p.weight, kInfDist);
    }
  }
  std::size_t unaffected = 0;
  for (NodeId u = 0; u < g.num_nodes(); u += 2) {
    for (NodeId v = u + 1; v < g.num_nodes(); v += 3) {
      if (u == victim || v == victim) continue;
      const ApproxPath p = extract_approximate_path(g, damaged, u, v);
      const ApproxPath intact = extract_approximate_path(g, labels, u, v);
      if (std::find(intact.nodes.begin(), intact.nodes.end(), victim) ==
          intact.nodes.end()) {
        // The intact walks never chose the victim, so they never needed
        // its label: the path is unchanged.
        EXPECT_EQ(p.nodes, intact.nodes);
        EXPECT_EQ(p.weight, tz_query(damaged.view(u), damaged.view(v)));
        ++unaffected;
      } else if (p.nodes.empty()) {
        EXPECT_EQ(p.weight, kInfDist);  // a detour was needed: don't know
      } else {
        EXPECT_EQ(p.weight, tz_query(damaged.view(u), damaged.view(v)));
      }
    }
  }
  EXPECT_GT(unaffected, 0u);
}

TEST(PathExtraction, ZeroWeightCycleTerminates) {
  // Next hops need positive weights to make progress; on the zero-weight
  // triangle 1-2-3 the walk from 1 toward 0 can circle. It must stop and
  // report either an exact shortest path or no path.
  const Graph g =
      Graph::from_edges(4, {{0, 3, 5}, {1, 2, 0}, {1, 3, 0}, {2, 3, 0}});
  const LabelArena labels =
      build_tz_centralized(g, Hierarchy::sample(g.num_nodes(), 1, 1));
  const std::vector<NodeId> route = route_to_target(g, labels, 1, 0);
  if (!route.empty()) {
    EXPECT_EQ(route.back(), 0u);
    EXPECT_EQ(path_weight(g, route), 5u);
  }
  const ApproxPath p = extract_approximate_path(g, labels, 1, 0);
  EXPECT_EQ(p.weight, p.nodes.empty() ? kInfDist : Dist{5});
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
      const ApproxPath p = extract_approximate_path(g, r.labels, u, v);
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
