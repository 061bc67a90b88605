// Quickstart: build distance sketches on a random network and query them.
//
//   $ ./quickstart
//
// Walks through the core API: generate a topology, run the distributed
// Thorup-Zwick construction in the CONGEST simulator, and answer distance
// queries from sketches alone, comparing against exact distances.
#include <cstdio>

#include "graph/generators.hpp"
#include "graph/shortest_paths.hpp"
#include "serve/sketch_store.hpp"

using namespace dsketch;

int main() {
  // A 1000-node weighted network (Erdos-Renyi with a connectivity backbone).
  const NodeId n = 1000;
  const Graph g = erdos_renyi(n, 0.008, /*weights=*/{1, 20}, /*seed=*/42);
  std::printf("network: %u nodes, %zu edges\n", g.num_nodes(), g.num_edges());

  // Build Thorup-Zwick sketches with k=3 (stretch guarantee 2k-1 = 5),
  // using the paper's fully distributed termination detection (§3.3).
  BuildConfig cfg;
  cfg.scheme = Scheme::kThorupZwick;
  cfg.k = 3;
  cfg.termination = TerminationMode::kEcho;
  const SketchStore sketches(g, cfg);
  const SimStats& cost = *sketches.build_cost();

  std::printf("built sketches: %s\n", sketches.guarantee().c_str());
  std::printf("  construction: %llu CONGEST rounds, %llu messages\n",
              static_cast<unsigned long long>(cost.rounds),
              static_cast<unsigned long long>(cost.messages));
  std::printf("  mean sketch size: %.1f words per node (vs %u for APSP rows)\n",
              sketches.mean_size_words(), n);

  // Query a few pairs and compare with exact distances.
  const auto exact_from_3 = dijkstra(g, 3);
  std::printf("\n%-8s %-8s %-10s %-10s %s\n", "u", "v", "exact", "estimate",
              "stretch");
  for (const NodeId v : {77u, 250u, 512u, 999u}) {
    const Dist d = exact_from_3[v];
    const Dist est = sketches.query(3, v);
    std::printf("%-8u %-8u %-10llu %-10llu %.2f\n", 3u, v,
                static_cast<unsigned long long>(d),
                static_cast<unsigned long long>(est),
                static_cast<double>(est) / static_cast<double>(d));
  }
  return 0;
}
