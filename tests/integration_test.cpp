// Cross-module integration: full pipelines on nontrivial topologies,
// exercising simulator + protocols + sketches + evaluation together.
#include <gtest/gtest.h>

#include "baselines/exact_oracle.hpp"
#include "congest/bellman_ford.hpp"
#include "graph/generators.hpp"
#include "graph/graph_io.hpp"
#include "graph/shortest_paths.hpp"
#include "serve/sketch_store.hpp"
#include "sketch/stretch_eval.hpp"

#include <sstream>

namespace dsketch {
namespace {

TEST(Integration, SketchBeatsOnlineQueryOnHighSGraph) {
  // §2.1's headline claim: with preprocessing, a query costs O(D * sketch)
  // rounds; without it, Omega(S). On a weighted path S is huge.
  const Graph g = path(120, {1, 1}, 0);
  const SimStats online = online_distance_rounds(g, 0);
  EXPECT_GE(online.rounds, 119u);

  BuildConfig cfg;
  cfg.scheme = Scheme::kThorupZwick;
  cfg.k = 4;
  const SketchStore sketches(g, cfg);
  // Query-time exchange cost model: O(D) hops * sketch words; here we
  // simply verify the sketch is drastically smaller than n words so the
  // exchange beats rebuilding distances.
  EXPECT_LT(sketches.mean_size_words(), 120.0);
}

TEST(Integration, AllSchemesSoundOnIspTopology) {
  const Graph g = isp_two_level(200, 12, {1, 3}, {5, 25}, 5);
  const ExactOracle oracle(g);
  const SampledGroundTruth gt(g, 10, 3);

  for (const Scheme scheme :
       {Scheme::kThorupZwick, Scheme::kSlack, Scheme::kCdg,
        Scheme::kGraceful}) {
    BuildConfig cfg;
    cfg.scheme = scheme;
    cfg.k = 3;
    cfg.epsilon = 0.2;
    const SketchStore sketches(g, cfg);
    const auto report = evaluate_stretch(
        g, gt, [&](NodeId u, NodeId v) { return sketches.query(u, v); }, {});
    EXPECT_EQ(report.underestimates, 0u)
        << "scheme " << static_cast<int>(scheme);
    EXPECT_EQ(report.unreachable, 0u);
  }
}

TEST(Integration, GraphRoundTripThenBuild) {
  const Graph g = barabasi_albert(120, 2, {1, 8}, 9);
  std::stringstream ss;
  write_graph(ss, g);
  const Graph h = read_graph(ss);
  BuildConfig cfg;
  cfg.scheme = Scheme::kThorupZwick;
  cfg.k = 2;
  cfg.seed = 4;
  const SketchStore a(g, cfg);
  const SketchStore b(h, cfg);
  for (NodeId u = 0; u < g.num_nodes(); u += 11) {
    for (NodeId v = u + 1; v < g.num_nodes(); v += 13) {
      EXPECT_EQ(a.query(u, v), b.query(u, v));
    }
  }
}

TEST(Integration, ParallelSimulationMatchesSerial) {
  const Graph g = erdos_renyi(150, 0.04, {1, 9}, 13);
  BuildConfig serial;
  serial.scheme = Scheme::kThorupZwick;
  serial.k = 3;
  serial.seed = 8;
  BuildConfig parallel = serial;
  parallel.sim.threads = 4;
  const SketchStore a(g, serial);
  const SketchStore b(g, parallel);
  EXPECT_EQ(a.build_cost()->rounds, b.build_cost()->rounds);
  EXPECT_EQ(a.build_cost()->messages, b.build_cost()->messages);
  for (NodeId u = 0; u < g.num_nodes(); u += 7) {
    for (NodeId v = u + 1; v < g.num_nodes(); v += 9) {
      EXPECT_EQ(a.query(u, v), b.query(u, v));
    }
  }
}

TEST(Integration, StretchOrderingAcrossK) {
  // Larger k must not produce larger sketches... it must produce *smaller*
  // sketches and (weakly) worse stretch — the Theorem 1.1 tradeoff.
  const Graph g = erdos_renyi(250, 0.03, {1, 9}, 17);
  const SampledGroundTruth gt(g, 10, 9);
  double prev_size = 1e18;
  for (const std::uint32_t k : {1u, 2u, 4u}) {
    BuildConfig cfg;
    cfg.scheme = Scheme::kThorupZwick;
    cfg.k = k;
    cfg.seed = 21;
    const SketchStore sketches(g, cfg);
    const auto report = evaluate_stretch(
        g, gt, [&](NodeId u, NodeId v) { return sketches.query(u, v); }, {});
    EXPECT_LE(report.max_stretch(), 2.0 * k - 1.0 + 1e-9);
    EXPECT_LT(sketches.mean_size_words(), prev_size);
    prev_size = sketches.mean_size_words();
  }
}

TEST(Integration, EchoAndOracleCostsComparable) {
  const Graph g = grid2d(10, 10, {1, 5}, 3);
  BuildConfig oracle_cfg;
  oracle_cfg.scheme = Scheme::kThorupZwick;
  oracle_cfg.k = 2;
  oracle_cfg.seed = 5;
  BuildConfig echo_cfg = oracle_cfg;
  echo_cfg.termination = TerminationMode::kEcho;
  const SketchStore a(g, oracle_cfg);
  const SketchStore b(g, echo_cfg);
  // Echo termination costs more but within the paper's constant-factor
  // prediction (x2 for echoes + convergecast overhead).
  EXPECT_GE(b.build_cost()->messages, a.build_cost()->messages);
  EXPECT_LE(b.build_cost()->messages,
            6 * a.build_cost()->messages + 100ull * g.num_nodes());
}

}  // namespace
}  // namespace dsketch
