// P2P overlay scenario (§1, §2.1): peers want cheap pairwise latency
// estimates for neighbor selection without flooding the network per query.
//
// We model an overlay as a Barabasi-Albert graph (heavy-tailed degrees,
// like real unstructured P2P) with link latencies, build *slack* sketches
// (Theorem 4.3) — small tables good for all but the closest pairs — and use
// them to pick the best replica among candidates, measuring how often the
// sketch-based choice matches the true-latency choice.
#include <cstdio>
#include <vector>

#include "graph/generators.hpp"
#include "graph/shortest_paths.hpp"
#include "serve/sketch_store.hpp"
#include "util/rng.hpp"

using namespace dsketch;

int main() {
  const NodeId n = 1500;
  const Graph overlay = barabasi_albert(n, 3, /*latencies=*/{5, 120}, 7);
  std::printf("overlay: %u peers, %zu links\n", overlay.num_nodes(),
              overlay.num_edges());

  BuildConfig cfg;
  cfg.scheme = Scheme::kSlack;
  cfg.epsilon = 0.05;  // guarantee holds for all but the closest 5%
  const SketchStore sketches(overlay, cfg);
  std::printf("sketches: %s, %.0f words/peer, built in %llu rounds\n",
              sketches.guarantee().c_str(), sketches.mean_size_words(),
              static_cast<unsigned long long>(sketches.build_cost()->rounds));

  // Replica selection: a client picks the closest of 5 candidate replicas.
  Rng rng(13);
  const int trials = 200;
  int agree = 0;
  double latency_ratio_sum = 0;
  for (int t = 0; t < trials; ++t) {
    const NodeId client = static_cast<NodeId>(rng.below(n));
    const auto exact = dijkstra(overlay, client);
    std::vector<NodeId> candidates;
    while (candidates.size() < 5) {
      const NodeId c = static_cast<NodeId>(rng.below(n));
      if (c != client) candidates.push_back(c);
    }
    NodeId best_true = candidates[0], best_est = candidates[0];
    for (const NodeId c : candidates) {
      if (exact[c] < exact[best_true]) best_true = c;
      if (sketches.query(client, c) < sketches.query(client, best_est)) {
        best_est = c;
      }
    }
    if (best_true == best_est) ++agree;
    latency_ratio_sum += static_cast<double>(exact[best_est]) /
                         static_cast<double>(exact[best_true]);
  }
  std::printf("\nreplica selection over %d trials:\n", trials);
  std::printf("  sketch picked the true-closest replica: %.0f%%\n",
              100.0 * agree / trials);
  std::printf("  mean latency penalty of sketch choice: %.2fx\n",
              latency_ratio_sum / trials);
  return 0;
}
