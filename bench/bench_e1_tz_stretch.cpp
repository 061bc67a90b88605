// E1 — Theorem 1.1 / 3.8: distributed TZ sketches give stretch <= 2k-1.
//
// Sweeps k over several topologies and reports observed mean/p95/max stretch
// against the guarantee. The paper's shape: max stretch always below 2k-1,
// mean stretch far below (typical instances are much better than worst
// case), and both grow with k while the sketch shrinks.
//
// A `baseline_stretch` table evaluates the registered baseline oracles
// (--baselines, default "landmark,vivaldi") over the same ground truth
// through the scheme-agnostic DistanceOracle path, so every E1 stretch
// row — sketch or baseline — comes from the identical evaluator.
//
// Exits 1 when a stretch_vs_k row breaks Theorem 1.1 (max stretch above
// 2k-1, or any underestimate), or a query_variant_ablation row has either
// query's max above 2k-1 or an exhaustive mean above the pivot mean.
//
// Flags: --n (1024) scales every topology, --kmax (5), --sources (16)
// ground-truth rows, --pops (24) ISP core size, --baselines NAME,....
#include <cmath>
#include <memory>

#include "bench_common.hpp"
#include "core/oracle_registry.hpp"
#include "serve/sketch_store.hpp"
#include "sketch/tz_distributed.hpp"

namespace dsketch::bench {

namespace {

struct Topology {
  std::string name;
  Graph graph;
};

std::vector<Topology> make_topologies(NodeId n, NodeId pops) {
  const auto rows = static_cast<NodeId>(
      std::max(2.0, std::floor(std::sqrt(static_cast<double>(n)))));
  std::vector<Topology> t;
  t.push_back({"erdos_renyi", erdos_renyi(n, 8.0 / n, {1, 16}, 42)});
  t.push_back({"grid_weighted", grid2d(rows, (n + rows - 1) / rows,
                                       {1, 16}, 42)});
  t.push_back({"barabasi_albert", barabasi_albert(n, 3, {1, 16}, 42)});
  t.push_back({"isp_two_level", isp_two_level(n, pops, {1, 4}, {8, 40}, 42)});
  return t;
}

}  // namespace

int run_e1(const FlagSet& flags, std::ostream& out) {
  const auto n = static_cast<NodeId>(flags.get("n", std::int64_t{1024}));
  const auto kmax =
      static_cast<std::uint32_t>(flags.get("kmax", std::int64_t{5}));
  const auto sources =
      static_cast<std::size_t>(flags.get("sources", std::int64_t{16}));
  const auto pops = static_cast<NodeId>(flags.get("pops", std::int64_t{24}));

  int violations = 0;
  for (const auto& topo : make_topologies(n, pops)) {
    const SampledGroundTruth gt(topo.graph, sources, 7);

    // Baseline oracles over the same ground truth and evaluator; Vivaldi
    // rows rely on the evaluator skipping pairs with no finite ground
    // truth rather than scoring est/infinity.
    for (const std::string& name : parse_name_list(
             flags.get("baselines", std::string("landmark,vivaldi")))) {
      const std::unique_ptr<DistanceOracle> oracle =
          OracleRegistry::instance().build(name, topo.graph, flags);
      const StretchReport report =
          evaluate_stretch(topo.graph, gt, *oracle, {});
      row("e1", "baseline_stretch")
          .add("topology", topo.name)
          .add("oracle", name)
          .add("n", static_cast<std::uint64_t>(topo.graph.num_nodes()))
          .add("guarantee", oracle->guarantee())
          .add("mean_stretch", report.all.mean())
          .add("p95_stretch", report.all.p(95))
          .add("max_stretch", report.all.max())
          .add("underestimates",
               static_cast<std::uint64_t>(report.underestimates))
          .add("mean_sketch_words", oracle->mean_size_words())
          .emit(out);
    }

    for (std::uint32_t k = 1; k <= kmax; ++k) {
      BuildConfig cfg;
      cfg.scheme = Scheme::kThorupZwick;
      cfg.k = k;
      cfg.seed = 100 + k;
      const SketchStore sketches(topo.graph, cfg);
      const auto report =
          eval(topo.graph, gt,
               [&](NodeId u, NodeId v) { return sketches.query(u, v); });
      if (report.all.max() > 2 * k - 1 || report.underestimates > 0) {
        ++violations;
      }
      row("e1", "stretch_vs_k")
          .add("topology", topo.name)
          .add("n", static_cast<std::uint64_t>(topo.graph.num_nodes()))
          .add("k", k)
          .add("bound_2k_minus_1", 2 * k - 1)
          .add("mean_stretch", report.all.mean())
          .add("p95_stretch", report.all.p(95))
          .add("max_stretch", report.all.max())
          .add("underestimates",
               static_cast<std::uint64_t>(report.underestimates))
          .add("mean_sketch_words", sketches.mean_size_words())
          .emit(out);
    }
  }

  // Ablation: Lemma 3.2's O(k) pivot query vs the exhaustive
  // common-bunch-member scan (same labels, same guarantee, better
  // practical stretch at O(bunch) query cost).
  {
    const Graph g = erdos_renyi(n, 8.0 / n, {1, 16}, 42);
    const SampledGroundTruth gt(g, sources, 7);
    for (std::uint32_t k = 2; k <= kmax; ++k) {
      const Hierarchy h = Hierarchy::sample(g.num_nodes(), k, 100 + k);
      const auto r = build_tz_distributed(g, h, TerminationMode::kOracle);
      const auto pivot_report = eval(g, gt, [&](NodeId u, NodeId v) {
        return tz_query(r.labels.view(u), r.labels.view(v));
      });
      const auto full_report = eval(g, gt, [&](NodeId u, NodeId v) {
        return tz_query_exhaustive(r.labels.view(u), r.labels.view(v));
      });
      if (pivot_report.all.max() > 2 * k - 1 ||
          full_report.all.max() > 2 * k - 1 ||
          full_report.all.mean() > pivot_report.all.mean()) {
        ++violations;
      }
      row("e1", "query_variant_ablation")
          .add("n", static_cast<std::uint64_t>(g.num_nodes()))
          .add("k", k)
          .add("mean_stretch_pivot", pivot_report.all.mean())
          .add("max_stretch_pivot", pivot_report.all.max())
          .add("mean_stretch_exhaustive", full_report.all.mean())
          .add("max_stretch_exhaustive", full_report.all.max())
          .emit(out);
    }
  }
  note(out, "e1",
       "Expected shape: max <= bound and no underestimates for every "
       "row; mean well below bound; sketch words shrink as k grows; the "
       "exhaustive query dominates the pivot query at equal sketch size "
       "(checked: the run exits 1 when a stretch_vs_k row breaks the "
       "bound or underestimates, or an ablation row has either max above "
       "2k-1 or an exhaustive mean above the pivot mean).");
  return violations == 0 ? 0 : 1;
}

}  // namespace dsketch::bench
