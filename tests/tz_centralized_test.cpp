#include <gtest/gtest.h>

#include <tuple>

#include "baselines/exact_oracle.hpp"
#include "graph/generators.hpp"
#include "graph/sp_kernel.hpp"
#include "sketch/cdg_sketch.hpp"  // serialize_label
#include "sketch/tz_centralized.hpp"
#include "util/thread_pool.hpp"

namespace dsketch {
namespace {

/// Brute-force labels straight from the definitions in §3.1, using full
/// APSP: B_i(u) = {w in A_i : key(d(u,w),w) < key(d(u,A_{i+1}))}.
LabelArena brute_force_labels(const Graph& g, const Hierarchy& h) {
  const ExactOracle oracle(g);
  const NodeId n = g.num_nodes();
  const std::uint32_t k = h.k();
  std::vector<TzLabelBuilder> labels;
  for (NodeId u = 0; u < n; ++u) {
    labels.emplace_back(u, k);
    // gates[i] = key of nearest A_i node.
    std::vector<DistKey> gates(k + 1, DistKey{});
    for (std::uint32_t i = 0; i < k; ++i) {
      DistKey best{};
      for (NodeId w = 0; w < n; ++w) {
        if (!h.in_level(w, i)) continue;
        const DistKey key{oracle.query(u, w), w};
        if (key < best) best = key;
      }
      gates[i] = best;
      labels[u].set_pivot(i, best);
    }
    for (std::uint32_t i = 0; i < k; ++i) {
      for (NodeId w = 0; w < n; ++w) {
        if (h.level_of(w) != i + 1) continue;  // w in A_i \ A_{i+1}
        const DistKey key{oracle.query(u, w), w};
        if (key < gates[i + 1]) {
          labels[u].add_bunch_entry({w, oracle.query(u, w)});
        }
      }
    }
    labels[u].sort_bunch();
  }
  return LabelArena::from_builders(std::move(labels));
}

class TzCentralizedSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint64_t>> {
};

TEST_P(TzCentralizedSweep, MatchesBruteForceDefinitions) {
  const auto [k, seed] = GetParam();
  // The weight axis: corpus-like weights; weights {0, 3}, whose
  // zero-weight edges make keys tie at the gates (a phase source can tie
  // its own gate and must then stay out of its cluster); and weights
  // above kBucketWeightLimit, so growth runs on the heap engine and its
  // decrease-key path.
  for (const WeightSpec weights :
       {WeightSpec{1, 12}, WeightSpec{0, 3}, WeightSpec{1, 10000}}) {
    SCOPED_TRACE(::testing::Message() << "weights " << weights.min_weight
                                      << ".." << weights.max_weight);
    const Graph g = erdos_renyi(60, 0.08, weights, seed);
    ASSERT_EQ(select_engine(g), weights.max_weight > kBucketWeightLimit
                                    ? SpEngine::kHeap
                                    : SpEngine::kBucket);
    const Hierarchy h = Hierarchy::sample(g.num_nodes(), k, seed * 31 + 1);
    const auto built = build_tz_centralized(g, h);
    const auto brute = brute_force_labels(g, h);
    ASSERT_EQ(built.num_nodes(), brute.num_nodes());
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      EXPECT_TRUE(built.view(u) == brute.view(u))
          << "label mismatch at node " << u;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, TzCentralizedSweep,
                         ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u),
                                            ::testing::Values(1u, 2u, 3u)));

TEST(TzCentralized, StretchBoundHolds) {
  const std::uint32_t k = 3;
  const Graph g = erdos_renyi(120, 0.05, {1, 10}, 7);
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), k, 77);
  const auto labels = build_tz_centralized(g, h);
  const ExactOracle oracle(g);
  for (NodeId u = 0; u < g.num_nodes(); u += 3) {
    for (NodeId v = u + 1; v < g.num_nodes(); v += 5) {
      const Dist d = oracle.query(u, v);
      const Dist est = tz_query(labels.view(u), labels.view(v));
      EXPECT_GE(est, d);
      EXPECT_LE(est, (2 * k - 1) * d);
    }
  }
}

TEST(TzCentralized, KEqualsOneIsExact) {
  const Graph g = grid2d(6, 6, {1, 7}, 3);
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), 1, 1);
  const auto labels = build_tz_centralized(g, h);
  const ExactOracle oracle(g);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    // k=1: every node's bunch is all of V — sketch degenerates to APSP rows.
    EXPECT_EQ(labels.view(u).count, g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (u == v) continue;
      EXPECT_EQ(tz_query(labels.view(u), labels.view(v)), oracle.query(u, v));
    }
  }
}

TEST(TzCentralized, PivotZeroIsSelf) {
  const Graph g = ring(20, {1, 5}, 9);
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), 3, 5);
  const auto labels = build_tz_centralized(g, h);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(labels.view(u).pivot(0).id, u);
    EXPECT_EQ(labels.view(u).pivot(0).dist, 0u);
  }
}

TEST(TzCentralized, ParallelBuildIsByteIdenticalToSerial) {
  // The parallel construction merges per-source cluster growth in phase
  // order, so a 1-thread and an N-thread build must serialize to exactly
  // the same words for every node.
  const Graph g = erdos_renyi(300, 0.03, {1, 14}, 23);
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), 3, 29);
  ThreadPool serial_pool(1);
  ThreadPool wide_pool(4);
  const auto serial = build_tz_centralized(g, h, &serial_pool);
  const auto wide = build_tz_centralized(g, h, &wide_pool);
  const auto global = build_tz_centralized(g, h);
  ASSERT_EQ(serial.num_nodes(), wide.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(serialize_label(serial.view(u)), serialize_label(wide.view(u)))
        << "label words diverge at node " << u;
    EXPECT_EQ(serialize_label(serial.view(u)), serialize_label(global.view(u)))
        << "global-pool label words diverge at node " << u;
  }
}

TEST(TzCentralized, BunchSizeGrowsAsLevelsShrink) {
  // Sanity on Lemma 3.1's shape: larger k gives smaller expected bunches
  // per level; total label size k=4 should be far below k=1 (= n).
  const Graph g = erdos_renyi(200, 0.04, {1, 6}, 17);
  const Hierarchy h1 = Hierarchy::sample(g.num_nodes(), 1, 3);
  const Hierarchy h4 = Hierarchy::sample(g.num_nodes(), 4, 3);
  const auto l1 = build_tz_centralized(g, h1);
  const auto l4 = build_tz_centralized(g, h4);
  double s1 = 0, s4 = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    s1 += static_cast<double>(l1.size_words(u));
    s4 += static_cast<double>(l4.size_words(u));
  }
  EXPECT_LT(s4, 0.6 * s1);
}

}  // namespace
}  // namespace dsketch
