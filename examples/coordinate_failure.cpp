// Why provable sketches (§1): coordinate systems like Vivaldi can fail
// badly on networks that do not embed into low-dimensional space, while
// the Thorup-Zwick guarantee is topology-independent.
//
// We run both on a friendly geometric network and on a ring with random
// low-latency chords (a classic non-embeddable instance), printing the
// distortion tails side by side.
#include <cstdio>

#include "baselines/vivaldi.hpp"
#include "graph/generators.hpp"
#include "graph/shortest_paths.hpp"
#include "serve/sketch_store.hpp"
#include "util/stats.hpp"

using namespace dsketch;

namespace {

void compare(const char* label, const Graph& g) {
  VivaldiConfig vc;
  vc.rounds = 40;
  const VivaldiCoordinates viv(g, vc);

  BuildConfig cfg;
  cfg.scheme = Scheme::kThorupZwick;
  cfg.k = 3;
  const SketchStore tz(g, cfg);

  const SampledGroundTruth gt(g, 10, 3);
  SampleSet viv_dist, tz_dist;
  for (std::size_t r = 0; r < gt.num_rows(); ++r) {
    const NodeId s = gt.sources()[r];
    for (NodeId v = 0; v < g.num_nodes(); v += 4) {
      if (v == s) continue;
      const double d = static_cast<double>(gt.dist(r, v));
      const double ev =
          std::max(1.0, static_cast<double>(viv.query(s, v)));
      const double et = static_cast<double>(tz.query(s, v));
      viv_dist.add(std::max(ev / d, d / ev));
      tz_dist.add(et / d);  // TZ never underestimates
    }
  }
  std::printf("%-28s vivaldi p50/p95/max: %5.2f %6.2f %7.2f   ", label,
              viv_dist.p(50), viv_dist.p(95), viv_dist.max());
  std::printf("TZ k=3 p50/p95/max: %5.2f %5.2f %5.2f (bound 5)\n",
              tz_dist.p(50), tz_dist.p(95), tz_dist.max());
}

}  // namespace

int main() {
  std::printf("Coordinate embeddings vs distance sketches\n");
  std::printf("distortion = max(est/true, true/est); 1.00 is perfect\n\n");
  compare("geometric (embeddable):", random_geometric(400, 0.09, 3, true));
  compare("ring+chords (hostile):", ring_with_chords(400, 200, 32, 1, 3));
  std::printf(
      "\nThe sketch bound holds on both; the embedding degrades on the "
      "non-Euclidean topology exactly as §1 of the paper argues.\n");
  return 0;
}
