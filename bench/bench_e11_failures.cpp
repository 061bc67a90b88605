// E11 — failure dynamics (§1 "the network itself changes frequently, and
// this would require altering the sketches periodically"; §5 future work).
//
// Builds TZ sketches on a healthy graph, fails a growing fraction of edges
// (connectivity-preserving), and measures how stale sketches behave against
// the degraded metric: underestimate rate (one-sided guarantee violations),
// stretch distribution, and the cost of rebuilding from scratch — the
// paper's stated remediation.
//
// Flags: --n (512) / --p / --graph FILE select the instance, --k (3),
// --sources (12).
#include "bench_common.hpp"
#include "dynamics/failure_model.hpp"
#include "serve/sketch_store.hpp"

namespace dsketch::bench {

int run_e11(const FlagSet& flags, std::ostream& out) {
  const Graph g = primary_graph(flags, 512, 0.015, {1, 12}, 21);
  const auto k = static_cast<std::uint32_t>(flags.get("k", std::int64_t{3}));
  const auto sources =
      static_cast<std::size_t>(flags.get("sources", std::int64_t{12}));
  BuildConfig cfg;
  cfg.scheme = Scheme::kThorupZwick;
  cfg.k = k;
  const SketchStore stale(g, cfg);

  for (const double fraction : {0.0, 0.05, 0.1, 0.2, 0.4}) {
    const FailurePlan plan = sample_edge_failures(g, fraction, 9);
    const Graph degraded = apply_failures(g, plan);
    const StalenessReport report = evaluate_staleness(
        degraded, [&](NodeId u, NodeId v) { return stale.query(u, v); },
        sources, 5);
    const SketchStore rebuilt(degraded, cfg);
    row("e11", "stale_sketches")
        .add("n", static_cast<std::uint64_t>(g.num_nodes()))
        .add("k", k)
        .add("failed_edges",
             static_cast<std::uint64_t>(plan.failed_edges.size()))
        .add("failed_fraction", fraction)
        .add("underestimate_rate",
             static_cast<double>(report.underestimates) /
                 static_cast<double>(report.pairs))
        .add("mean_stretch", report.stretch.mean())
        .add("p95_stretch", report.stretch.p(95))
        .add("max_stretch", report.stretch.max())
        .add("rebuild_rounds", rebuilt.build_cost()->rounds)
        .add("rebuild_messages", rebuilt.build_cost()->messages)
        .emit(out);
  }
  note(out, "e11",
       "Expected shape: zero underestimates at fraction 0 (the guarantee), "
       "a growing underestimate rate with churn (stale estimates route "
       "through dead edges), and rebuild cost roughly flat (the degraded "
       "graph is no harder to preprocess).");
  return 0;
}

}  // namespace dsketch::bench
