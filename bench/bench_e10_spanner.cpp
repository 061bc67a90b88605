// E10 — spanner extraction ([TZ05 §4], the structural sibling of the
// sketches): the union of cluster shortest-path trees is a (2k-1)-spanner
// with O(k n^{1+1/k}) edges in expectation. The trees are read off the
// centralized TZ labels (sketch/spanner.hpp).
//
// Sweeps k on a dense graph: spanner edge count (normalized by k n^{1+1/k})
// and the worst observed stretch of spanner distances. Returns 1 when any
// row's max stretch exceeds 2k-1, so the repro runner fails the cell.
//
// Flags: --n (600), --p (0.15), --kmax (5), --sources (12).
#include <cmath>

#include "bench_common.hpp"
#include "sketch/spanner.hpp"
#include "sketch/tz_centralized.hpp"

namespace dsketch::bench {

int run_e10(const FlagSet& flags, std::ostream& out) {
  const auto n = static_cast<NodeId>(flags.get("n", std::int64_t{600}));
  const auto kmax =
      static_cast<std::uint32_t>(flags.get("kmax", std::int64_t{5}));
  const auto sources =
      static_cast<std::size_t>(flags.get("sources", std::int64_t{12}));
  const Graph g = erdos_renyi(n, flags.get("p", 0.15), {1, 9}, 3);
  const SampledGroundTruth gt(g, sources, 7);
  bool bound_violated = false;
  for (std::uint32_t k = 1; k <= kmax; ++k) {
    const Hierarchy h = Hierarchy::sample(n, k, 100 + k);
    const Graph sp = spanner_graph(g, build_tz_centralized(g, h));
    SampleSet stretch;
    for (std::size_t r = 0; r < gt.num_rows(); ++r) {
      const auto dh = dijkstra(sp, gt.sources()[r]);
      for (NodeId v = 0; v < n; v += 2) {
        if (v == gt.sources()[r]) continue;
        stretch.add(static_cast<double>(dh[v]) /
                    static_cast<double>(gt.dist(r, v)));
      }
    }
    bound_violated = bound_violated || stretch.max() > 2 * k - 1;
    const double denom = k * std::pow(static_cast<double>(n), 1.0 + 1.0 / k);
    row("e10", "spanner_size_vs_stretch")
        .add("n", static_cast<std::uint64_t>(n))
        .add("graph_edges", static_cast<std::uint64_t>(g.num_edges()))
        .add("k", k)
        .add("bound_2k_minus_1", 2 * k - 1)
        .add("spanner_edges", static_cast<std::uint64_t>(sp.num_edges()))
        .add("edges_normalized",
             static_cast<double>(sp.num_edges()) / denom)
        .add("kept_fraction", static_cast<double>(sp.num_edges()) /
                                  static_cast<double>(g.num_edges()))
        .add("max_stretch", stretch.max())
        .add("mean_stretch", stretch.mean())
        .emit(out);
  }
  note(out, "e10",
       "Expected shape: edges drop sharply with k while max stretch stays "
       "under 2k-1; normalized edge count is O(1). The cell fails when a "
       "row's max stretch exceeds 2k-1.");
  return bound_violated ? 1 : 0;
}

}  // namespace dsketch::bench
