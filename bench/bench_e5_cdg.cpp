// E5 — Theorem 4.6: (ε,k)-CDG sketches.
//
// Sweeps the (ε,k) grid: size O(k (1/ε log n)^{1/k} log n) words, stretch
// 8k-1 on ε-far pairs, and the construction cost split including the label
// dissemination step the paper leaves implicit.
//
// Exits 1 when a stretch_and_size row breaks Theorem 4.6: a far pair past
// 8k-1, or any underestimate.
//
// Flags: --n (1024) / --p / --graph FILE select the instance, --sources
// (16), --kmax (3).
#include "bench_common.hpp"
#include "sketch/cdg_sketch.hpp"

namespace dsketch::bench {

int run_e5(const FlagSet& flags, std::ostream& out) {
  const Graph g = primary_graph(flags, 1024, 0.008, {1, 16}, 33);
  const NodeId n = g.num_nodes();
  const auto sources =
      static_cast<std::size_t>(flags.get("sources", std::int64_t{16}));
  const auto kmax =
      static_cast<std::uint32_t>(flags.get("kmax", std::int64_t{3}));
  const SampledGroundTruth gt(g, sources, 5);

  int violations = 0;
  for (const double eps : {0.05, 0.1, 0.2}) {
    for (std::uint32_t k = 1; k <= kmax; ++k) {
      CdgConfig cfg;
      cfg.epsilon = eps;
      cfg.k = k;
      cfg.seed = 77;
      const auto r = build_cdg_sketches(g, cfg);
      const auto report = eval(
          g, gt, [&](NodeId u, NodeId v) { return r.sketches.query(u, v); },
          eps);
      if (report.far_only.max() > 8 * r.k_used - 1 ||
          report.underestimates > 0) {
        ++violations;
      }
      row("e5", "stretch_and_size")
          .add("n", static_cast<std::uint64_t>(n))
          .add("epsilon", eps)
          .add("k", r.k_used)
          .add("bound_8k_minus_1", 8 * r.k_used - 1)
          .add("far_mean_stretch", report.far_only.mean())
          .add("far_max_stretch", report.far_only.max())
          .add("near_max_stretch", report.near_only.max())
          .add("mean_words", mean_size_words(r.sketches, n))
          .add("underestimates",
               static_cast<std::uint64_t>(report.underestimates))
          .emit(out);
    }
  }

  for (std::uint32_t k = 1; k <= kmax; ++k) {
    CdgConfig cfg;
    cfg.epsilon = 0.1;
    cfg.k = k;
    cfg.seed = 78;
    const auto r = build_cdg_sketches(g, cfg);
    const double total_rounds = static_cast<double>(r.total().rounds);
    row("e5", "construction_cost_split")
        .add("n", static_cast<std::uint64_t>(n))
        .add("epsilon", 0.1)
        .add("k", k)
        .add("voronoi_rounds", r.voronoi_stats.rounds)
        .add("tz_rounds", r.tz_stats.rounds)
        .add("dissemination_rounds", r.dissemination_stats.rounds)
        .add("dissemination_share",
             static_cast<double>(r.dissemination_stats.rounds) / total_rounds)
        .add("total_messages", r.total().messages)
        .emit(out);
  }
  note(out, "e5",
       "Expected shape: far max <= 8k-1 and no underestimates on every "
       "row (checked: the run exits 1 otherwise); sketch words shrink "
       "with eps and k. Dissemination is not a minor cost: each label "
       "streams down its Voronoi tree at 2 words per message, about a "
       "third of the build's rounds at n=1024.");
  return violations == 0 ? 0 : 1;
}

}  // namespace dsketch::bench
