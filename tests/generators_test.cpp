#include <gtest/gtest.h>

#include <tuple>

#include "graph/generators.hpp"

namespace dsketch {
namespace {

TEST(Generators, ErdosRenyiConnectedAndSeeded) {
  const Graph a = erdos_renyi(200, 0.02, {1, 10}, 42);
  const Graph b = erdos_renyi(200, 0.02, {1, 10}, 42);
  const Graph c = erdos_renyi(200, 0.02, {1, 10}, 43);
  EXPECT_TRUE(a.connected());
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_NE(a.num_edges(), c.num_edges());  // overwhelmingly likely
}

TEST(Generators, ErdosRenyiEdgeCountNearExpectation) {
  const NodeId n = 500;
  const double p = 0.02;
  const Graph g = erdos_renyi(n, p, {1, 1}, 7);
  const double expected = p * n * (n - 1) / 2.0;
  // backbone adds at most n-1 edges
  EXPECT_GT(static_cast<double>(g.num_edges()), 0.7 * expected);
  EXPECT_LT(static_cast<double>(g.num_edges()), 1.3 * expected + n);
}

TEST(Generators, RandomGraphNmHitsTarget) {
  const Graph g = random_graph_nm(300, 900, {1, 5}, 3);
  EXPECT_TRUE(g.connected());
  EXPECT_GE(g.num_edges(), 900u);
  EXPECT_LE(g.num_edges(), 900u + 299u);
}

TEST(Generators, GridDimensions) {
  const Graph g = grid2d(5, 7, {1, 1}, 0);
  EXPECT_EQ(g.num_nodes(), 35u);
  EXPECT_EQ(g.num_edges(), 5u * 6 + 4u * 7);  // horizontal + vertical
  EXPECT_TRUE(g.connected());
}

TEST(Generators, RingAndPath) {
  const Graph r = ring(10, {1, 1}, 0);
  EXPECT_EQ(r.num_edges(), 10u);
  for (NodeId u = 0; u < 10; ++u) EXPECT_EQ(r.degree(u), 2u);
  const Graph p = path(10, {1, 1}, 0);
  EXPECT_EQ(p.num_edges(), 9u);
  EXPECT_EQ(p.degree(0), 1u);
  EXPECT_EQ(p.degree(5), 2u);
}

TEST(Generators, BarabasiAlbertConnectedAndSkewed) {
  const Graph g = barabasi_albert(400, 2, {1, 1}, 9);
  EXPECT_TRUE(g.connected());
  std::size_t max_deg = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    max_deg = std::max(max_deg, g.degree(u));
  }
  EXPECT_GT(max_deg, 10u);  // hubs exist
}

TEST(Generators, WattsStrogatzConnected) {
  const Graph g = watts_strogatz(200, 3, 0.1, {1, 4}, 5);
  EXPECT_TRUE(g.connected());
  EXPECT_GE(g.num_edges(), 200u * 3 / 2);
}

TEST(Generators, RandomTreeHasNMinusOneEdges) {
  const Graph g = random_tree(128, {1, 8}, 2);
  EXPECT_EQ(g.num_edges(), 127u);
  EXPECT_TRUE(g.connected());
}

TEST(Generators, RingWithChords) {
  const Graph g = ring_with_chords(100, 30, 50, 1, 4);
  EXPECT_TRUE(g.connected());
  EXPECT_GE(g.num_edges(), 100u + 25u);  // chords may collide slightly
}

TEST(Generators, IspTwoLevel) {
  const Graph g = isp_two_level(300, 10, {1, 3}, {5, 20}, 6);
  EXPECT_TRUE(g.connected());
  EXPECT_EQ(g.num_nodes(), 300u);
}

TEST(Generators, StarAndComplete) {
  const Graph s = star(50, {1, 1}, 0);
  EXPECT_EQ(s.degree(0), 49u);
  const Graph k = complete(8, {1, 1}, 0);
  EXPECT_EQ(k.num_edges(), 28u);
}

TEST(Generators, CaterpillarShape) {
  const Graph g = caterpillar(10, 3, 100, 0);
  EXPECT_EQ(g.num_nodes(), 40u);
  EXPECT_TRUE(g.connected());
  EXPECT_EQ(g.degree(39), 1u);  // legs are leaves
}

TEST(Generators, GeometricConnected) {
  const Graph g = random_geometric(300, 0.12, 8, true);
  EXPECT_TRUE(g.connected());
  EXPECT_GT(g.num_edges(), 300u);
}

// Every generator must produce a connected graph for any seed (property).
class GeneratorConnectivity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorConnectivity, AllGeneratorsConnected) {
  const std::uint64_t seed = GetParam();
  EXPECT_TRUE(erdos_renyi(100, 0.01, {1, 9}, seed).connected());
  EXPECT_TRUE(random_graph_nm(100, 150, {1, 9}, seed).connected());
  EXPECT_TRUE(random_geometric(100, 0.1, seed).connected());
  EXPECT_TRUE(barabasi_albert(100, 2, {1, 9}, seed).connected());
  EXPECT_TRUE(watts_strogatz(100, 2, 0.2, {1, 9}, seed).connected());
  EXPECT_TRUE(random_tree(100, {1, 9}, seed).connected());
  EXPECT_TRUE(ring_with_chords(100, 20, 10, 1, seed).connected());
  EXPECT_TRUE(isp_two_level(100, 8, {1, 2}, {3, 9}, seed).connected());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorConnectivity,
                         ::testing::Values(1, 2, 3, 4, 5, 17, 99, 12345));

}  // namespace
}  // namespace dsketch
