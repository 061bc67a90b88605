// Approximate routing: the sketches don't just estimate distances — a
// node reads its next hop toward any bunch member off the labels and its
// own edges, so packets travel real paths whose length equals the sketch
// estimate (stretch <= 2k-1).
//
// We build TZ sketches on an ISP-like topology and route packets between
// random pairs, comparing realized path weight to the true shortest path
// and showing the witness ("meet me at landmark w") structure. Exits 1 if
// a path is missing or its length differs from the sketch estimate.
#include <cstdio>

#include "graph/generators.hpp"
#include "graph/shortest_paths.hpp"
#include "sketch/hierarchy.hpp"
#include "sketch/path_extraction.hpp"
#include "sketch/tz_distributed.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using namespace dsketch;

int main() {
  const NodeId n = 800;
  const Graph g = isp_two_level(n, 16, {1, 4}, {8, 40}, 7);
  std::printf("topology: %u nodes, %zu links\n", n, g.num_edges());

  const std::uint32_t k = 3;
  const Hierarchy h = Hierarchy::sample(n, k, 5);
  const auto r = build_tz_distributed(g, h, TerminationMode::kEcho);
  std::printf("TZ k=%u sketches built in %llu rounds\n\n", k,
              static_cast<unsigned long long>(r.total_rounds()));

  Rng rng(13);
  SampleSet stretch, hops;
  std::size_t mismatches = 0;
  // Every path must be real and exactly as long as the sketch estimate.
  const auto route = [&](NodeId u, NodeId v) {
    ApproxPath p = extract_approximate_path(g, r.labels, u, v);
    if (p.nodes.empty() ||
        p.weight != tz_query(r.labels.view(u), r.labels.view(v))) {
      ++mismatches;
    }
    return p;
  };
  std::printf("%-6s %-6s %-9s %-10s %-10s %-8s %s\n", "src", "dst", "witness",
              "true dist", "path len", "stretch", "path hops");
  for (int t = 0; t < 8; ++t) {
    const NodeId u = static_cast<NodeId>(rng.below(n));
    NodeId v = static_cast<NodeId>(rng.below(n));
    if (v == u) v = (v + 1) % n;
    const ApproxPath p = route(u, v);
    const Dist d = dijkstra(g, u)[v];
    std::printf("%-6u %-6u %-9u %-10llu %-10llu %-8.2f %zu\n", u, v, p.witness,
                static_cast<unsigned long long>(d),
                static_cast<unsigned long long>(p.weight),
                static_cast<double>(p.weight) / static_cast<double>(d),
                p.nodes.size() - 1);
  }

  // Aggregate over many pairs.
  for (int t = 0; t < 500; ++t) {
    const NodeId u = static_cast<NodeId>(rng.below(n));
    NodeId v = static_cast<NodeId>(rng.below(n));
    if (v == u) v = (v + 1) % n;
    const ApproxPath p = route(u, v);
    const Dist d = dijkstra(g, u)[v];
    stretch.add(static_cast<double>(p.weight) / static_cast<double>(d));
    hops.add(static_cast<double>(p.nodes.size() - 1));
  }
  std::printf("\nover 500 random pairs: path stretch mean %.2f p95 %.2f max "
              "%.2f (bound %u); mean hops %.1f\n",
              stretch.mean(), stretch.p(95), stretch.max(), 2 * k - 1,
              hops.mean());
  if (mismatches != 0) {
    std::printf("%zu paths missing or off the sketch estimate\n", mismatches);
    return 1;
  }
  std::printf("every packet followed real edges; length == sketch estimate "
              "on every pair.\n");
  return 0;
}
