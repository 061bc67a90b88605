// Accounting conservation: the per-round telemetry stream (obs/round_log)
// and the aggregate SimStats are two views of the same run, produced by
// different code paths — the stream by windowed emission with adaptive
// stride, the aggregate by the simulator's counters. On real experiment
// workloads (the E4 slack build, the E8 online Bellman–Ford, the E15
// distributed-build pipeline) the summed window deltas must equal the
// stats totals exactly: no double count, no drop at stride boundaries,
// per phase and in aggregate.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "congest/bellman_ford.hpp"
#include "graph/generators.hpp"
#include "obs/round_log.hpp"
#include "sketch/slack_sketch.hpp"
#include "sketch/tz_distributed.hpp"

namespace dsketch {
namespace {

using obs::RoundLog;

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

std::uint64_t field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = line.find(needle);
  EXPECT_NE(pos, std::string::npos) << key << " missing in " << line;
  if (pos == std::string::npos) return 0;
  return std::stoull(line.substr(pos + needle.size()));
}

std::string phase_of(const std::string& line) {
  const std::string needle = "\"phase\":\"";
  const auto pos = line.find(needle);
  EXPECT_NE(pos, std::string::npos) << "phase missing in " << line;
  if (pos == std::string::npos) return "";
  const auto start = pos + needle.size();
  return line.substr(start, line.find('"', start) - start);
}

/// Sums of the streamed window deltas, per phase label.
struct PhaseTotals {
  std::uint64_t messages = 0;
  std::uint64_t words = 0;
  std::uint64_t rounds = 0;  // executed rounds covered by windows
};

std::map<std::string, PhaseTotals> totals_by_phase(const std::string& text) {
  std::map<std::string, PhaseTotals> totals;
  for (const std::string& line : lines_of(text)) {
    PhaseTotals& t = totals[phase_of(line)];
    t.messages += field(line, "messages");
    t.words += field(line, "words");
    t.rounds += field(line, "rounds_in_window");
  }
  return totals;
}

TEST(AccountingConservation, SlackBuildStreamMatchesStats) {
  // The E4 workload: a slack-sketch build streaming per-round telemetry.
  // A tight line budget forces several stride doublings mid-phase.
  const Graph g = erdos_renyi(150, 0.05, {1, 8}, 17);
  std::ostringstream out;
  RoundLog::Options opts;
  opts.experiment = "e4";
  opts.max_lines_per_phase = 4;
  RoundLog log(out, opts);
  SimConfig cfg;
  cfg.round_log = &log;
  const SlackSketchResult r = build_slack_sketches(g, 0.1, 9, cfg);
  log.flush();

  const auto totals = totals_by_phase(out.str());
  std::uint64_t messages = 0;
  std::uint64_t words = 0;
  for (const auto& [phase, t] : totals) {
    messages += t.messages;
    words += t.words;
  }
  EXPECT_EQ(messages, r.stats.messages);
  EXPECT_EQ(words, r.stats.words);
  // Per-phase attribution: every streamed phase label shows up in the
  // stats breakdown with exactly the streamed message total.
  for (const SimPhase& p : r.stats.breakdown()) {
    const auto it = totals.find(p.label);
    ASSERT_NE(it, totals.end()) << "phase " << p.label << " not streamed";
    EXPECT_EQ(it->second.messages, p.messages) << "phase " << p.label;
    EXPECT_EQ(it->second.words, p.words) << "phase " << p.label;
  }
}

TEST(AccountingConservation, OnlineBellmanFordStreamMatchesStats) {
  // The E8 workload: online single-source distance on two topology
  // shapes, both runs streaming into one log under distinct phase labels.
  std::ostringstream out;
  RoundLog::Options opts;
  opts.experiment = "e8";
  opts.max_lines_per_phase = 8;
  RoundLog log(out, opts);

  const Graph er = erdos_renyi(200, 0.04, {1, 9}, 23);
  SimConfig er_cfg;
  er_cfg.phase = "online_bf_er";
  er_cfg.round_log = &log;
  const SimStats er_stats = online_distance_rounds(er, 0, er_cfg);

  const Graph pg = path(120, {1, 16}, 24);
  SimConfig path_cfg;
  path_cfg.phase = "online_bf_path";
  path_cfg.round_log = &log;
  const SimStats path_stats = online_distance_rounds(pg, 0, path_cfg);
  log.flush();

  const auto totals = totals_by_phase(out.str());
  ASSERT_TRUE(totals.count("online_bf_er"));
  ASSERT_TRUE(totals.count("online_bf_path"));
  EXPECT_EQ(totals.at("online_bf_er").messages, er_stats.messages);
  EXPECT_EQ(totals.at("online_bf_er").words, er_stats.words);
  EXPECT_EQ(totals.at("online_bf_path").messages, path_stats.messages);
  EXPECT_EQ(totals.at("online_bf_path").words, path_stats.words);
  // Bellman–Ford keeps traffic in flight every round (no timers), so the
  // windows must cover the full round span with no gap or overlap.
  EXPECT_EQ(totals.at("online_bf_er").rounds, er_stats.rounds);
  EXPECT_EQ(totals.at("online_bf_path").rounds, path_stats.rounds);
}

TEST(AccountingConservation, DistributedTzPipelineStreamMatchesStats) {
  // The E15 workload: leader election + BFS tree, then the echo-
  // terminated TZ construction, sharing one round log across both
  // simulator runs (the builder forwards SimConfig to each).
  const Graph g = erdos_renyi(180, 0.045, {1, 7}, 29);
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), 3, 31);
  std::ostringstream out;
  RoundLog::Options opts;
  opts.experiment = "e15";
  opts.max_lines_per_phase = 6;
  RoundLog log(out, opts);
  SimConfig cfg;
  cfg.round_log = &log;
  cfg.threads = 2;  // conservation must hold on the threaded paths too
  const auto r = build_tz_distributed(g, h, TerminationMode::kEcho, cfg);
  log.flush();

  const auto totals = totals_by_phase(out.str());
  ASSERT_TRUE(totals.count("bfs_tree"));
  ASSERT_TRUE(totals.count("tz_construction"));
  EXPECT_EQ(totals.at("bfs_tree").messages, r.tree_stats.messages);
  EXPECT_EQ(totals.at("bfs_tree").words, r.tree_stats.words);
  EXPECT_EQ(totals.at("tz_construction").messages, r.stats.messages);
  EXPECT_EQ(totals.at("tz_construction").words, r.stats.words);
  std::uint64_t messages = 0;
  for (const auto& [phase, t] : totals) messages += t.messages;
  EXPECT_EQ(messages, r.total_messages());
}

}  // namespace
}  // namespace dsketch
