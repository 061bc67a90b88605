#include "congest/fault_plan.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace dsketch {

FaultPlan::FaultPlan(const Graph& g, FaultConfig cfg) : cfg_(cfg) {
  Rng rng(cfg_.seed * 0x9e3779b97f4a7c15ULL + 0xfa17);
  const NodeId n = g.num_nodes();

  // Crash schedule: distinct nodes, one crash each, sampled rounds.
  if (cfg_.node_crashes > 0 && n > 0) {
    Rng crash_rng = rng.split(1);
    std::vector<NodeId> victims;
    const std::uint32_t want = std::min<std::uint32_t>(cfg_.node_crashes, n);
    while (victims.size() < want) {
      const NodeId u = static_cast<NodeId>(crash_rng.below(n));
      if (std::find(victims.begin(), victims.end(), u) == victims.end()) {
        victims.push_back(u);
      }
    }
    const std::uint64_t horizon = std::max<std::uint64_t>(cfg_.crash_horizon, 2);
    for (const NodeId u : victims) {
      const std::uint64_t at = 1 + crash_rng.below(horizon - 1);
      crashes_.push_back(CrashEvent{u, at, at + cfg_.crash_downtime});
    }
    std::sort(crashes_.begin(), crashes_.end(),
              [](const CrashEvent& a, const CrashEvent& b) {
                if (a.at != b.at) return a.at < b.at;
                return a.node < b.node;
              });
  }

  // Link-down schedule: sample undirected links by (node, local edge) and
  // register the interval under both half-edge directions.
  if (cfg_.link_faults > 0 && g.num_edges() > 0) {
    Rng link_rng = rng.split(2);
    const std::uint64_t horizon =
        std::max<std::uint64_t>(cfg_.link_fault_horizon, 2);
    for (std::uint32_t i = 0; i < cfg_.link_faults; ++i) {
      NodeId u;
      do {
        u = static_cast<NodeId>(link_rng.below(n));
      } while (g.degree(u) == 0);
      const auto local = static_cast<std::uint32_t>(link_rng.below(
          static_cast<std::uint64_t>(g.degree(u))));
      const std::uint64_t from = 1 + link_rng.below(horizon - 1);
      const DownInterval window{from, from + cfg_.link_down_rounds};
      link_down_[g.half_edge_index(u, local)] = window;
      link_down_[g.twin(u, local)] = window;
    }
  }
}

}  // namespace dsketch
