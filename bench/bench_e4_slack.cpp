// E4 — Theorem 4.3 (stretch-3 ε-slack sketches) and Lemma 4.2 (density
// nets, folded-in E10).
//
// Sweeps ε: reports net size vs the 10 ln(n)/ε bound and coverage
// violations (E10), then sketch size, construction rounds, and stretch
// split into ε-far pairs (guarantee: <= 3) vs near pairs (no guarantee).
//
// Exits 1 when a density_nets row breaks Lemma 4.2 (a coverage violation,
// or |N| above 10 ln n/ε) or a slack_sketches row breaks Theorem 4.3 (far
// max stretch above 3, or any underestimate).
//
// Flags: --n (1024) / --p / --graph FILE select the instance, --sources
// (16) ground-truth rows.
#include <cmath>

#include "bench_common.hpp"
#include "obs/round_log.hpp"
#include "sketch/density_net.hpp"
#include "sketch/slack_sketch.hpp"

namespace dsketch::bench {

int run_e4(const FlagSet& flags, std::ostream& out) {
  const Graph g = primary_graph(flags, 1024, 0.008, {1, 16}, 21);
  const NodeId n = g.num_nodes();
  const auto sources =
      static_cast<std::size_t>(flags.get("sources", std::int64_t{16}));
  const SampledGroundTruth gt(g, sources, 3);

  int violations = 0;
  for (const double eps : {0.02, 0.05, 0.1, 0.2, 0.4}) {
    const auto net = sample_density_net(n, eps, 5);
    const double bound = 10.0 * std::log(static_cast<double>(n)) / eps;
    const NodeId uncovered = count_density_net_violations(g, net, eps);
    if (uncovered > 0 || static_cast<double>(net.size()) > bound) {
      ++violations;
    }
    row("e4", "density_nets")
        .add("n", static_cast<std::uint64_t>(n))
        .add("epsilon", eps)
        .add("net_size", static_cast<std::uint64_t>(net.size()))
        .add("bound_10_ln_n_over_eps", bound)
        .add("coverage_violations", static_cast<std::uint64_t>(uncovered))
        .emit(out);
  }

  for (const double eps : {0.02, 0.05, 0.1, 0.2, 0.4}) {
    // One representative construction (eps = 0.1) streams its per-round
    // CONGEST telemetry into the row stream: same JSON-lines schema as
    // every other table, rendered as `congest_rounds` in the report.
    SimConfig sim_cfg;
    obs::RoundLog::Options log_opts;
    log_opts.experiment = "e4";
    obs::RoundLog round_log(out, log_opts);
    if (eps == 0.1) sim_cfg.round_log = &round_log;
    const auto r = build_slack_sketches(g, eps, 9, sim_cfg);
    round_log.flush();
    const auto report = eval(
        g, gt, [&](NodeId u, NodeId v) { return r.sketches.query(u, v); },
        eps);
    if (report.far_only.max() > 3 || report.underestimates > 0) {
      ++violations;
    }
    row("e4", "slack_sketches")
        .add("n", static_cast<std::uint64_t>(n))
        .add("epsilon", eps)
        .add("sketch_words", static_cast<std::uint64_t>(
                                 r.sketches.size_words(0)))
        .add("rounds", r.stats.rounds)
        .add("messages", r.stats.messages)
        .add("far_mean_stretch", report.far_only.mean())
        .add("far_max_stretch", report.far_only.max())
        .add("near_mean_stretch", report.near_only.mean())
        .add("near_max_stretch", report.near_only.max())
        .add("underestimates",
             static_cast<std::uint64_t>(report.underestimates))
        .emit(out);
  }
  note(out, "e4",
       "Expected shape: |N| under its bound with zero violations; far max "
       "<= 3 and no underestimates for every eps (checked: the run exits 1 "
       "otherwise); near pairs may exceed 3 (that is the slack); size and "
       "rounds shrink as eps grows.");
  return violations == 0 ? 0 : 1;
}

}  // namespace dsketch::bench
