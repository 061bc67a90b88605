#include "sketch/slack_sketch.hpp"

#include "congest/bellman_ford.hpp"
#include "sketch/density_net.hpp"
#include "util/assert.hpp"

namespace dsketch {

Dist slack_query(const Dist* du, const Dist* dv, std::size_t net_size) {
  Dist best = kInfDist;
  for (std::size_t i = 0; i < net_size; ++i) {
    if (du[i] == kInfDist || dv[i] == kInfDist) continue;
    best = std::min(best, du[i] + dv[i]);
  }
  return best;
}

SlackSketchResult build_slack_sketches(const Graph& g, double epsilon,
                                       std::uint64_t seed, SimConfig cfg) {
  const NodeId n = g.num_nodes();
  std::vector<NodeId> net = sample_density_net(n, epsilon, seed);
  if (cfg.phase.empty()) cfg.phase = "slack_net_bf";
  MultiSourceBfResult bf = run_multi_source_bf(g, net, cfg);

  SlackSketchResult result;
  result.sketches = SlackSketchSet(net);
  std::vector<Dist> row(net.size());
  for (NodeId u = 0; u < n; ++u) {
    for (std::size_t i = 0; i < net.size(); ++i) {
      const auto it = bf.dist[u].find(net[i]);
      DS_CHECK_MSG(it != bf.dist[u].end(),
                   "connected graph: every net distance must be learned");
      row[i] = it->second;
    }
    result.sketches.append_row(row.data());
  }
  result.stats = bf.stats;
  return result;
}

}  // namespace dsketch
