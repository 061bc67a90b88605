// The build constructor of SketchStore — the one sketch-set class — for
// each of the four families, and the save/load round trip of what it
// built.
#include <gtest/gtest.h>

#include <sstream>

#include "baselines/exact_oracle.hpp"
#include "core/oracle_registry.hpp"
#include "graph/generators.hpp"
#include "serve/sketch_store.hpp"

namespace dsketch {
namespace {

TEST(Engine, ThorupZwickScheme) {
  const Graph g = erdos_renyi(100, 0.06, {1, 9}, 3);
  BuildConfig cfg;
  cfg.scheme = Scheme::kThorupZwick;
  cfg.k = 3;
  const SketchStore sketches(g, cfg);
  const ExactOracle oracle(g);
  for (NodeId u = 0; u < g.num_nodes(); u += 4) {
    for (NodeId v = u + 1; v < g.num_nodes(); v += 5) {
      const Dist d = oracle.query(u, v);
      EXPECT_GE(sketches.query(u, v), d);
      EXPECT_LE(sketches.query(u, v), 5 * d);
    }
  }
  ASSERT_NE(sketches.build_cost(), nullptr);
  EXPECT_GT(sketches.build_cost()->rounds, 0u);
  EXPECT_GT(sketches.mean_size_words(), 0.0);
  EXPECT_NE(sketches.guarantee().find("5"), std::string::npos);
}

TEST(Engine, SlackScheme) {
  const Graph g = erdos_renyi(80, 0.08, {1, 9}, 5);
  BuildConfig cfg;
  cfg.scheme = Scheme::kSlack;
  cfg.epsilon = 0.2;
  const SketchStore sketches(g, cfg);
  const ExactOracle oracle(g);
  for (NodeId u = 0; u < g.num_nodes(); u += 6) {
    for (NodeId v = u + 1; v < g.num_nodes(); v += 7) {
      EXPECT_GE(sketches.query(u, v), oracle.query(u, v));
    }
  }
}

TEST(Engine, CdgScheme) {
  const Graph g = erdos_renyi(80, 0.08, {1, 9}, 7);
  BuildConfig cfg;
  cfg.scheme = Scheme::kCdg;
  cfg.epsilon = 0.25;
  cfg.k = 2;
  const SketchStore sketches(g, cfg);
  const ExactOracle oracle(g);
  for (NodeId u = 0; u < g.num_nodes(); u += 6) {
    for (NodeId v = u + 1; v < g.num_nodes(); v += 7) {
      EXPECT_GE(sketches.query(u, v), oracle.query(u, v));
    }
  }
}

TEST(Engine, GracefulScheme) {
  const Graph g = erdos_renyi(64, 0.1, {1, 9}, 9);
  BuildConfig cfg;
  cfg.scheme = Scheme::kGraceful;
  const SketchStore sketches(g, cfg);
  const ExactOracle oracle(g);
  for (NodeId u = 0; u < g.num_nodes(); u += 5) {
    for (NodeId v = u + 1; v < g.num_nodes(); v += 6) {
      EXPECT_GE(sketches.query(u, v), oracle.query(u, v));
    }
  }
  EXPECT_NE(sketches.guarantee().find("log"), std::string::npos);
}

TEST(Engine, EchoTerminationWorksThroughFacade) {
  const Graph g = erdos_renyi(60, 0.1, {1, 5}, 11);
  BuildConfig cfg;
  cfg.scheme = Scheme::kThorupZwick;
  cfg.k = 2;
  cfg.termination = TerminationMode::kEcho;
  const SketchStore sketches(g, cfg);
  const ExactOracle oracle(g);
  for (NodeId u = 0; u < g.num_nodes(); u += 7) {
    for (NodeId v = u + 1; v < g.num_nodes(); v += 8) {
      const Dist d = oracle.query(u, v);
      EXPECT_GE(sketches.query(u, v), d);
      EXPECT_LE(sketches.query(u, v), 3 * d);
    }
  }
}

TEST(Engine, KnownSModeThroughFacade) {
  const Graph g = erdos_renyi(60, 0.1, {1, 5}, 13);
  BuildConfig cfg;
  cfg.scheme = Scheme::kThorupZwick;
  cfg.k = 2;
  cfg.termination = TerminationMode::kKnownS;
  const SketchStore sketches(g, cfg);
  const ExactOracle oracle(g);
  for (NodeId u = 0; u < g.num_nodes(); u += 7) {
    for (NodeId v = u + 1; v < g.num_nodes(); v += 8) {
      const Dist d = oracle.query(u, v);
      EXPECT_GE(sketches.query(u, v), d);
      EXPECT_LE(sketches.query(u, v), 3 * d);
    }
  }
  // The padded deadlines make the reported cost the analytic bound.
  EXPECT_GT(sketches.build_cost()->rounds, 1000u);
}

TEST(Engine, GuaranteeStringsMentionParameters) {
  const Graph g = ring(24, {1, 3}, 1);
  BuildConfig tz;
  tz.scheme = Scheme::kThorupZwick;
  tz.k = 4;
  EXPECT_NE(SketchStore(g, tz).guarantee().find("7"), std::string::npos);
  BuildConfig cdg;
  cdg.scheme = Scheme::kCdg;
  cdg.k = 2;
  cdg.epsilon = 0.25;
  EXPECT_NE(SketchStore(g, cdg).guarantee().find("15"), std::string::npos);
}

TEST(Engine, MoveSemantics) {
  const Graph g = ring(32, {1, 3}, 1);
  BuildConfig cfg;
  cfg.scheme = Scheme::kSlack;
  cfg.epsilon = 0.3;
  SketchStore a(g, cfg);
  const Dist before = a.query(0, 16);
  SketchStore b = std::move(a);
  EXPECT_EQ(b.query(0, 16), before);
  ASSERT_NE(b.build_cost(), nullptr);
}

class EngineRoundTrip : public ::testing::TestWithParam<Scheme> {};

TEST_P(EngineRoundTrip, SaveLoadAnswersIdentically) {
  // What a build saves, OracleRegistry::load reads back: the same
  // answers, the same per-node sizes, and the build's parameters in the
  // envelope (the construction cost is not persisted).
  const Graph g = erdos_renyi(70, 0.08, {1, 9}, 9);
  BuildConfig cfg;
  cfg.scheme = GetParam();
  cfg.k = 2;
  cfg.epsilon = 0.25;
  const SketchStore built(g, cfg);
  std::stringstream ss;
  built.save(ss);
  const LoadedOracle loaded = OracleRegistry::instance().load(ss);
  const DistanceOracle& back = *loaded.oracle;
  for (NodeId u = 0; u < g.num_nodes(); u += 3) {
    for (NodeId v = u + 1; v < g.num_nodes(); v += 4) {
      EXPECT_EQ(back.query(u, v), built.query(u, v));
    }
    EXPECT_EQ(back.size_words(u), built.size_words(u));
  }
  EXPECT_EQ(loaded.envelope.scheme, scheme_name(cfg.scheme));
  EXPECT_EQ(loaded.envelope.n, g.num_nodes());
  EXPECT_EQ(loaded.envelope.k, cfg.k);
  EXPECT_EQ(loaded.envelope.epsilon, cfg.epsilon);
  EXPECT_EQ(back.build_cost(), nullptr);
}

INSTANTIATE_TEST_SUITE_P(Schemes, EngineRoundTrip,
                         ::testing::Values(Scheme::kThorupZwick,
                                           Scheme::kSlack, Scheme::kCdg,
                                           Scheme::kGraceful));

}  // namespace
}  // namespace dsketch
