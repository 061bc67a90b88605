#include <gtest/gtest.h>

#include <cmath>

#include "sketch/hierarchy.hpp"

namespace dsketch {
namespace {

TEST(Hierarchy, KEqualsOneIsJustV) {
  const Hierarchy h = Hierarchy::sample(100, 1, 3);
  for (NodeId u = 0; u < 100; ++u) {
    EXPECT_TRUE(h.in_level(u, 0));
    EXPECT_EQ(h.level_of(u), 1u);
  }
  EXPECT_EQ(h.level_members(0).size(), 100u);
  EXPECT_TRUE(h.top_level_nonempty());
}

TEST(Hierarchy, LevelsAreNested) {
  const Hierarchy h = Hierarchy::sample(1000, 4, 7);
  for (std::uint32_t i = 0; i + 1 < 4; ++i) {
    const auto upper = h.level_members(i + 1);
    for (const NodeId u : upper) {
      EXPECT_TRUE(h.in_level(u, i));  // A_{i+1} subset of A_i
    }
    EXPECT_LE(upper.size(), h.level_members(i).size());
  }
}

TEST(Hierarchy, SamplingRateNearExpectation) {
  const NodeId n = 4096;
  const std::uint32_t k = 3;
  const Hierarchy h = Hierarchy::sample(n, k, 11);
  const double p = std::pow(n, -1.0 / k);
  const double expected1 = n * p;
  const auto a1 = h.level_members(1).size();
  EXPECT_GT(static_cast<double>(a1), 0.5 * expected1);
  EXPECT_LT(static_cast<double>(a1), 1.7 * expected1);
}

TEST(Hierarchy, PhaseSourcesPartitionA0) {
  const Hierarchy h = Hierarchy::sample(500, 3, 13);
  std::size_t total = 0;
  for (std::uint32_t i = 0; i < 3; ++i) {
    for (const NodeId u : h.phase_sources(i)) {
      EXPECT_EQ(h.level_of(u), i + 1);
      ++total;
    }
  }
  EXPECT_EQ(total, 500u);  // every node sources exactly one phase
}

TEST(Hierarchy, SubsetSamplingLeavesOthersAtZero) {
  const std::vector<NodeId> ground{2, 4, 6, 8};
  const Hierarchy h = Hierarchy::sample_on_subset(10, 2, ground, 0.5, 5);
  for (NodeId u = 0; u < 10; ++u) {
    const bool in_ground = u % 2 == 0 && u >= 2;
    EXPECT_EQ(h.level_of(u) > 0, in_ground);
  }
}

TEST(Hierarchy, DeterministicForSeed) {
  const Hierarchy a = Hierarchy::sample(200, 4, 99);
  const Hierarchy b = Hierarchy::sample(200, 4, 99);
  for (NodeId u = 0; u < 200; ++u) {
    EXPECT_EQ(a.level_of(u), b.level_of(u));
  }
}

TEST(Hierarchy, SampleRedrawsUntilTheTopLevelIsNonempty) {
  // n = 5, k = 5: a node reaches A_4 with probability 5^{-4/5} ~ 0.28,
  // so about a fifth of first draws leave the top level empty. A
  // re-drawn seed s continues with s + 1, so it equals seed s + 1.
  std::size_t redrawn = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const Hierarchy h = Hierarchy::sample(5, 5, seed);
    EXPECT_TRUE(h.top_level_nonempty());
    const Hierarchy next = Hierarchy::sample(5, 5, seed + 1);
    bool same = true;
    for (NodeId u = 0; u < 5; ++u) same &= h.level_of(u) == next.level_of(u);
    redrawn += same ? 1 : 0;
  }
  EXPECT_GT(redrawn, 0u);
  EXPECT_EQ(Hierarchy::sample(0, 3, 1).n(), 0u);
}

TEST(Hierarchy, TopLevelEmptinessDetected) {
  // k=2 over a single ground node with p=0: top level must be empty.
  const Hierarchy h = Hierarchy::sample_on_subset(5, 2, {0}, 0.0, 1);
  EXPECT_FALSE(h.top_level_nonempty());
}

class HierarchySweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint64_t>> {
};

TEST_P(HierarchySweep, InvariantsHold) {
  const auto [k, seed] = GetParam();
  const NodeId n = 300;
  const Hierarchy h = Hierarchy::sample(n, k, seed);
  EXPECT_EQ(h.k(), k);
  EXPECT_EQ(h.n(), n);
  for (NodeId u = 0; u < n; ++u) {
    EXPECT_GE(h.level_of(u), 1u);
    EXPECT_LE(h.level_of(u), k);
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, HierarchySweep,
                         ::testing::Combine(::testing::Values(1u, 2u, 3u, 5u),
                                            ::testing::Values(1u, 2u, 3u)));

}  // namespace
}  // namespace dsketch
