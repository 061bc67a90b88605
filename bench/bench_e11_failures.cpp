// E11 — failure dynamics (§1 "the network itself changes frequently, and
// this would require altering the sketches periodically"; §5 future work).
//
// Builds TZ sketches on a healthy graph, then fails a growing fraction of
// edges with one delete-only UpdateStream (bridges never fail, so the
// graph stays connected, and each fraction extends the previous failure
// set). Every fraction scores two sketch sets against the degraded
// metric with evaluate_stretch: the stale ones (underestimate rate — the
// one-sided guarantee breaking — and stretch) and ones rebuilt on the
// degraded graph, the paper's stated remediation (their underestimates
// and build cost). Exits nonzero when the guarantee itself fails: an
// underestimate at fraction 0 or from any rebuilt sketch.
//
// Flags: --n (512) / --p / --graph FILE select the instance, --k (3),
// --sources (12).
#include "bench_common.hpp"
#include "dynamics/update_stream.hpp"
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

  UpdateStream failures(
      g, {.insert_weight = 0, .reweight_weight = 0, .seed = 9});
  bool guarantee_held = true;
  for (const double fraction : {0.0, 0.05, 0.1, 0.2, 0.4}) {
    const auto target = static_cast<std::uint64_t>(
        fraction * static_cast<double>(g.num_edges()));
    // A spanning tree has only bridges left: no further edge may fail.
    while (failures.applied() < target &&
           failures.graph().num_edges() >= g.num_nodes()) {
      failures.next();
    }
    const Graph& degraded = failures.graph();
    const SampledGroundTruth gt(degraded, sources, 5);
    const StretchReport report = evaluate_stretch(degraded, gt, stale, {});
    const SketchStore rebuilt(degraded, cfg);
    const StretchReport fresh = evaluate_stretch(degraded, gt, rebuilt, {});
    if (fresh.underestimates > 0 ||
        (fraction == 0.0 && report.underestimates > 0)) {
      guarantee_held = false;
    }
    row("e11", "stale_sketches")
        .add("n", static_cast<std::uint64_t>(g.num_nodes()))
        .add("k", k)
        .add("failed_edges", failures.applied())
        .add("failed_fraction", fraction)
        .add("underestimate_rate", report.underestimate_rate())
        .add("mean_stretch", report.all.mean())
        .add("p95_stretch", report.all.p(95))
        .add("max_stretch", report.all.max())
        .add("rebuilt_underestimates",
             static_cast<std::uint64_t>(fresh.underestimates))
        .add("rebuild_rounds", rebuilt.build_cost()->rounds)
        .add("rebuild_messages", rebuilt.build_cost()->messages)
        .emit(out);
  }
  note(out, "e11",
       "Expected shape: zero underestimates at fraction 0 and from every "
       "rebuilt sketch (the guarantee; checked — the run fails "
       "otherwise), a growing stale underestimate rate with churn (stale "
       "estimates route through dead edges), and rebuild cost roughly "
       "flat (the degraded graph is no harder to preprocess).");
  return guarantee_held ? 0 : 1;
}

}  // namespace dsketch::bench
