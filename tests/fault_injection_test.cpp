// End-to-end fault injection: FaultPlan schedules against the real
// protocols. The sim-level invariants (determinism across thread counts,
// fault counter accounting) live in sim_fuzz_test; this file checks the
// recovery story — the reliable link layer and the termination machinery
// deliver byte-identical TZ labels under loss, duplication, reordering,
// link flaps, and crash/restarts, and the failure modes are graceful and
// observable when tolerance is off.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "congest/fault_plan.hpp"
#include "congest/sim.hpp"
#include "graph/generators.hpp"
#include "obs/round_log.hpp"
#include "sketch/hierarchy.hpp"
#include "sketch/tz_centralized.hpp"
#include "sketch/tz_distributed.hpp"

namespace dsketch {
namespace {

class TzUnderFaults : public ::testing::Test {
 protected:
  TzUnderFaults()
      : g_(erdos_renyi(90, 0.07, {1, 5}, 53)),
        h_(Hierarchy::sample(g_.num_nodes(), 2, 54)),
        central_(build_tz_centralized(g_, h_)) {}

  FaultConfig lossy_config() const {
    FaultConfig fc;
    fc.drop_rate = 0.05;
    fc.duplicate_rate = 0.02;
    fc.reorder_rate = 0.05;
    fc.link_faults = 2;
    fc.link_fault_horizon = 50;
    fc.link_down_rounds = 8;
    fc.node_crashes = 2;
    fc.crash_horizon = 50;
    fc.crash_downtime = 10;
    fc.seed = 0xc0ffee;
    return fc;
  }

  Graph g_;
  Hierarchy h_;
  LabelArena central_;
};

TEST_F(TzUnderFaults, EchoTerminationConvergesToExactLabels) {
  // The paper's fully distributed variant (§3.3 echo termination) under
  // the full fault cocktail: with the reliable layer on, the build must
  // complete and the labels must be byte-identical to ground truth —
  // the acceptance bar for E16.
  const FaultPlan plan(g_, lossy_config());
  SimConfig cfg;
  cfg.faults = &plan;
  TzFaultTolerance ft;
  ft.enabled = true;
  ft.rto = 8;
  const auto result =
      build_tz_distributed(g_, h_, TerminationMode::kEcho, cfg, false, 0, ft);
  ASSERT_TRUE(result.completed);
  EXPECT_FALSE(result.stats.hit_round_limit);
  EXPECT_GT(result.retransmits, 0u);
  EXPECT_GT(result.stats.dropped, 0u);
  ASSERT_EQ(result.labels.num_nodes(), central_.num_nodes());
  for (NodeId u = 0; u < g_.num_nodes(); ++u) {
    EXPECT_TRUE(result.labels.view(u) == central_.view(u)) << "node " << u;
  }
  // The BFS-tree pre-pass runs fault-free by contract.
  EXPECT_EQ(result.tree_stats.dropped, 0u);
}

TEST_F(TzUnderFaults, RepeatedRunsReplayExactly) {
  // Same seed, same plan -> the entire run (labels, stats, retransmit
  // counters) replays exactly. This is the debugging contract: any fault
  // run can be reproduced from its FaultConfig alone.
  const FaultPlan plan(g_, lossy_config());
  TzFaultTolerance ft;
  ft.enabled = true;
  ft.rto = 8;
  SimConfig cfg;
  cfg.faults = &plan;
  const auto a =
      build_tz_distributed(g_, h_, TerminationMode::kOracle, cfg, false, 0, ft);
  const auto b =
      build_tz_distributed(g_, h_, TerminationMode::kOracle, cfg, false, 0, ft);
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
  EXPECT_EQ(a.stats.messages, b.stats.messages);
  EXPECT_EQ(a.stats.dropped, b.stats.dropped);
  EXPECT_EQ(a.stats.duplicated, b.stats.duplicated);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.duplicate_discards, b.duplicate_discards);
  for (NodeId u = 0; u < g_.num_nodes(); ++u) {
    EXPECT_TRUE(a.labels.view(u) == b.labels.view(u)) << "node " << u;
  }
}

TEST_F(TzUnderFaults, WithoutToleranceTheBuildFailsClosed) {
  // Faults without the reliable layer: a lost ECHO stalls termination
  // detection forever. The build must report completed = false with empty
  // labels instead of asserting or returning wrong ones.
  FaultConfig fc;
  fc.drop_rate = 0.15;
  fc.seed = 99;
  const FaultPlan plan(g_, fc);
  SimConfig cfg;
  cfg.faults = &plan;
  cfg.max_rounds = 4000;
  const auto result =
      build_tz_distributed(g_, h_, TerminationMode::kEcho, cfg);
  EXPECT_FALSE(result.completed);
  EXPECT_TRUE(result.labels.empty());
}

TEST_F(TzUnderFaults, CleanRunsPayNoTolerancePenaltyInLabels) {
  // Fault tolerance enabled on a fault-free network: the header word costs
  // bandwidth but the labels must be unchanged and nothing retransmits.
  TzFaultTolerance ft;
  ft.enabled = true;
  const auto result =
      build_tz_distributed(g_, h_, TerminationMode::kEcho, {}, false, 0, ft);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.retransmits, 0u);
  EXPECT_EQ(result.stats.dropped, 0u);
  for (NodeId u = 0; u < g_.num_nodes(); ++u) {
    EXPECT_TRUE(result.labels.view(u) == central_.view(u)) << "node " << u;
  }
}

TEST(FaultPlanSchedule, SampledEventsRespectTheConfig) {
  const Graph g = erdos_renyi(60, 0.08, {1, 5}, 7);
  FaultConfig fc;
  fc.node_crashes = 3;
  fc.crash_horizon = 100;
  fc.crash_downtime = 12;
  fc.link_faults = 4;
  fc.link_fault_horizon = 80;
  fc.link_down_rounds = 9;
  const FaultPlan plan(g, fc);
  ASSERT_EQ(plan.crashes().size(), 3u);
  std::vector<NodeId> victims;
  for (const CrashEvent& c : plan.crashes()) {
    EXPECT_GE(c.at, 1u);
    EXPECT_LT(c.at, fc.crash_horizon);
    EXPECT_EQ(c.restart, c.at + fc.crash_downtime);
    victims.push_back(c.node);
  }
  std::sort(victims.begin(), victims.end());
  EXPECT_EQ(std::unique(victims.begin(), victims.end()), victims.end())
      << "crash victims must be distinct";
  // Same config -> identical schedule (the replayability contract).
  const FaultPlan replay(g, fc);
  ASSERT_EQ(replay.crashes().size(), plan.crashes().size());
  for (std::size_t i = 0; i < plan.crashes().size(); ++i) {
    EXPECT_EQ(replay.crashes()[i].node, plan.crashes()[i].node);
    EXPECT_EQ(replay.crashes()[i].at, plan.crashes()[i].at);
  }
}

TEST(FaultObservability, RoundLogCarriesDropCounts) {
  // The per-round telemetry must surface the fault counters so a fault
  // run's loss profile is visible in the round log.
  const Graph g = erdos_renyi(80, 0.06, {1, 5}, 13);
  FaultConfig fc;
  fc.drop_rate = 0.2;
  fc.seed = 5;
  const FaultPlan plan(g, fc);
  class Chatter : public Protocol {
   public:
    void on_start(NodeCtx& ctx) override { ctx.wake(); }
    void on_round(NodeCtx& ctx) override {
      if (ctx.round() < 10) {
        for (std::uint32_t e = 0; e < ctx.degree(); ++e) {
          ctx.send(e, Message{ctx.node()});
        }
        ctx.wake();
      }
    }
  };
  Chatter p;
  std::ostringstream sink;
  obs::RoundLog log(sink);
  SimConfig cfg;
  cfg.faults = &plan;
  cfg.round_log = &log;
  Simulator sim(g, p, cfg);
  const SimStats stats = sim.run();
  log.flush();
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_NE(sink.str().find("\"dropped\""), std::string::npos);
}

}  // namespace
}  // namespace dsketch
