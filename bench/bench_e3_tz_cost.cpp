// E3 — Theorem 1.1 cost: O(k n^{1/k} S log n) rounds and
// O(k n^{1/k} S |E| log n) messages; §3.3's claim that distributed
// termination detection (echo + COMPLETE convergecast) costs only a
// constant factor over knowing S.
//
// Exits 1 when a cost_vs_n row's echo or known-S build gives other labels
// than the oracle-mode build on the same hierarchy, or takes fewer rounds.
//
// Also runs the capacity ablation: with per-edge capacity disabled, round
// counts collapse, demonstrating the CONGEST constraint is what the bound
// is made of.
//
// Flags: --nmax (1024) caps the n sweep (the S sweep and the bandwidth
// ablation run at min(512, nmax)), --k (3).
#include <cmath>

#include "bench_common.hpp"
#include "sketch/tz_distributed.hpp"

namespace dsketch::bench {

int run_e3(const FlagSet& flags, std::ostream& out) {
  const auto nmax = static_cast<NodeId>(flags.get("nmax", std::int64_t{1024}));
  const auto k = static_cast<std::uint32_t>(flags.get("k", std::int64_t{3}));

  const NodeId breakdown_n = nmax >= 1024 ? 1024 : nmax >= 512 ? 512 : 256;
  int violations = 0;
  for (const NodeId n : {256u, 512u, 1024u}) {
    if (n > nmax) continue;
    const Graph g = erdos_renyi(n, 8.0 / n, {1, 12}, 5);
    const std::uint32_t S = sp_diameter_auto(g, 8, 3);
    const Hierarchy h = Hierarchy::sample(n, k, 11);
    const auto oracle = build_tz_distributed(g, h, TerminationMode::kOracle);
    const auto echo = build_tz_distributed(g, h, TerminationMode::kEcho);
    const auto knowns =
        build_tz_distributed(g, h, TerminationMode::kKnownS, {}, false, S);
    const double denom =
        k * std::pow(n, 1.0 / k) * S * std::log(static_cast<double>(n));
    const bool labels_equal =
        echo.labels == oracle.labels && knowns.labels == oracle.labels;
    if (!labels_equal || echo.total_rounds() < oracle.stats.rounds ||
        knowns.stats.rounds < oracle.stats.rounds) {
      ++violations;
    }
    row("e3", "cost_vs_n")
        .add("n", static_cast<std::uint64_t>(n))
        .add("k", k)
        .add("S", S)
        .add("rounds_oracle", oracle.stats.rounds)
        .add("rounds_echo", echo.total_rounds())
        .add("rounds_knowns", knowns.stats.rounds)
        .add("echo_over_oracle", static_cast<double>(echo.total_rounds()) /
                                     static_cast<double>(oracle.stats.rounds))
        .add("messages_oracle", oracle.stats.messages)
        .add("messages_echo", echo.total_messages())
        .add("rounds_normalized",
             static_cast<double>(oracle.stats.rounds) / denom)
        .add("labels_equal", labels_equal)
        .emit(out);

    // Labeled per-phase cost of the echo build at the largest n that ran:
    // termination detection's constant factor, phase by phase.
    if (n == breakdown_n) {
      SimStats combined = echo.tree_stats;
      combined += echo.stats;
      for (const SimPhase& p : combined.breakdown()) {
        row("e3", "phase_breakdown")
            .add("n", static_cast<std::uint64_t>(n))
            .add("phase", p.label)
            .add("rounds", p.rounds)
            .add("messages", p.messages)
            .add("words", p.words)
            .add("max_outbox", p.max_outbox)
            .add("hit_round_limit", p.hit_round_limit)
            .emit(out);
      }
    }
  }

  const NodeId nf = std::min<NodeId>(512, nmax);
  struct Topo {
    std::string name;
    Graph g;
  };
  std::vector<Topo> topos;
  topos.push_back({"erdos_renyi", erdos_renyi(nf, 8.0 / nf, {1, 12}, 5)});
  topos.push_back(
      {"grid", grid2d(16, std::max<NodeId>(2, nf / 16), {1, 12}, 5)});
  topos.push_back({"ring", ring(nf, {1, 12}, 5)});
  for (auto& t : topos) {
    const std::uint32_t S = sp_diameter_auto(t.g, 8, 3);
    const Hierarchy h = Hierarchy::sample(t.g.num_nodes(), k, 13);
    const auto r = build_tz_distributed(t.g, h, TerminationMode::kOracle);
    row("e3", "cost_vs_s")
        .add("topology", t.name)
        .add("n", static_cast<std::uint64_t>(t.g.num_nodes()))
        .add("S", S)
        .add("rounds_oracle", r.stats.rounds)
        .add("rounds_per_s", static_cast<double>(r.stats.rounds) / S)
        .emit(out);
  }

  {
    const Graph g = erdos_renyi(nf, 8.0 / nf, {1, 12}, 5);
    const Hierarchy h = Hierarchy::sample(nf, k, 17);
    SimConfig on;
    const auto rr = build_tz_distributed(g, h, TerminationMode::kOracle, on);
    const auto eager_cap = build_tz_distributed(
        g, h, TerminationMode::kOracle, on, /*eager_send=*/true);
    SimConfig off;
    off.enforce_capacity = false;
    const auto eager_free = build_tz_distributed(
        g, h, TerminationMode::kOracle, off, /*eager_send=*/true);
    const auto ablation_row = [&](const std::string& discipline,
                                  const std::string& capacity,
                                  const TzDistributedResult& r) {
      row("e3", "bandwidth_ablation")
          .add("send_discipline", discipline)
          .add("edge_capacity", capacity)
          .add("rounds", r.stats.rounds)
          .add("messages", r.stats.messages)
          .add("peak_edge_queue", r.stats.max_outbox)
          .emit(out);
    };
    ablation_row("round-robin (Algorithm 2)", "1 msg/round", rr);
    ablation_row("eager (all pending)", "1 msg/round", eager_cap);
    ablation_row("eager (all pending)", "unbounded", eager_free);
  }
  note(out, "e3",
       "Expected shape: termination detection changes the cost, not the "
       "result (checked: the run exits 1 when a cost_vs_n row's echo or "
       "known-S build gives other labels than the oracle-mode build, or "
       "fewer rounds). Not checked, read at default flags: echo/oracle "
       "rounds 2.30-2.53; rounds_normalized 0.069, 0.063, 0.047 for n = "
       "256, 512, 1024; rounds_per_s 8.3 (erdos_renyi, S 12), 2.7 (grid, "
       "S 52), 1.4 (ring, S 265). Ablation: 99 rounds round-robin, 110 "
       "eager with a peak edge queue of 24, 31 eager without the "
       "capacity limit.");
  return violations == 0 ? 0 : 1;
}

}  // namespace dsketch::bench
