// Scale stress: the constructions at n in the thousands, where the
// event-driven simulator and parallel stepping earn their keep. Kept to a
// few seconds of wall time; exercises code paths (hash-map growth, queue
// churn, fast-forward) that small tests cannot.
#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/shortest_paths.hpp"
#include "sketch/hierarchy.hpp"
#include "sketch/stretch_eval.hpp"
#include "sketch/tz_distributed.hpp"

namespace dsketch {
namespace {

TEST(Stress, TzAtFourThousandNodes) {
  const NodeId n = 4096;
  const Graph g = erdos_renyi(n, 6.0 / n, {1, 16}, 99);
  const Hierarchy h = Hierarchy::sample(n, 4, 7);
  SimConfig cfg;
  cfg.threads = 0;  // use all cores
  const auto r = build_tz_distributed(g, h, TerminationMode::kOracle, cfg);
  ASSERT_EQ(r.labels.num_nodes(), n);

  // Spot-check soundness against sampled ground truth.
  const SampledGroundTruth gt(g, 4, 3);
  EvalOptions opts;
  opts.max_pairs_per_source = 300;
  const auto report = evaluate_stretch(
      g, gt,
      [&](NodeId u, NodeId v) { return tz_query(r.labels.view(u), r.labels.view(v)); },
      opts);
  EXPECT_EQ(report.underestimates, 0u);
  EXPECT_LE(report.max_stretch(), 7.0);  // 2k-1
  // Size sanity: far below the n words of an APSP row.
  double words = 0;
  for (NodeId u = 0; u < n; ++u) {
    words += static_cast<double>(r.labels.size_words(u));
  }
  EXPECT_LT(words / n, 300.0);
}

TEST(Stress, EchoTerminationAtTwoThousandNodes) {
  const NodeId n = 2048;
  const Graph g = barabasi_albert(n, 3, {1, 8}, 5);
  const Hierarchy h = Hierarchy::sample(n, 3, 11);
  const auto echo = build_tz_distributed(g, h, TerminationMode::kEcho);
  const auto oracle = build_tz_distributed(g, h, TerminationMode::kOracle);
  ASSERT_EQ(echo.labels.num_nodes(), n);
  for (NodeId u = 0; u < n; u += 97) {
    EXPECT_TRUE(echo.labels.view(u) == oracle.labels.view(u)) << "node " << u;
  }
}

}  // namespace
}  // namespace dsketch
