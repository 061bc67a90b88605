#include "sketch/tz_centralized.hpp"

#include <utility>

#include "graph/sp_kernel.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace dsketch {

LevelGates compute_level_gates(const Graph& g, const Hierarchy& hierarchy,
                               ThreadPool* pool) {
  const obs::Span span("tz_level_gates");
  ThreadPool& tp = pool != nullptr ? *pool : global_pool();
  const std::uint32_t k = hierarchy.k();
  LevelGates out;
  out.gate.resize(k);
  std::vector<std::vector<NodeId>> members(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    members[i] = hierarchy.level_members(i);
  }
  tp.for_each_dynamic(k, [&](std::size_t, std::size_t i) {
    out.gate[i].assign(g.num_nodes(), DistKey{});
    if (members[i].empty()) return;
    SpWorkspace& ws = thread_workspace();
    sp_multi_source(g, members[i], ws);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      out.gate[i][u] = DistKey{ws.dist(u), ws.owner(u)};
    }
  });
  return out;
}

LabelArena build_tz_centralized(const Graph& g, const Hierarchy& hierarchy,
                                ThreadPool* pool) {
  const obs::Span build_span("tz_centralized_build");
  ThreadPool& tp = pool != nullptr ? *pool : global_pool();
  const std::uint32_t k = hierarchy.k();
  const NodeId n = g.num_nodes();
  DS_CHECK(hierarchy.n() == n);

  const LevelGates gates = compute_level_gates(g, hierarchy, &tp);

  std::vector<TzLabelBuilder> labels;
  labels.reserve(n);
  for (NodeId u = 0; u < n; ++u) {
    labels.emplace_back(u, k);
    for (std::uint32_t i = 0; i < k; ++i) {
      labels[u].set_pivot(i, gates.gate[i][u]);
    }
  }

  // Cluster growth: pruned Dijkstra from every source w in A_i \ A_{i+1}.
  // Node x joins C(w) iff key(d(x,w), w) < gate_{i+1}(x); expansion stops
  // at nodes that fail the gate (cluster is closed under shortest paths —
  // the same consistency argument that makes the distributed gate sound).
  // Sources are independent: grow them in parallel, one kernel workspace
  // per worker, then append the per-source member lists in phase order so
  // the labels match a serial build exactly.
  struct GrowJob {
    std::uint32_t level;
    NodeId source;
  };
  std::vector<GrowJob> jobs;
  for (std::uint32_t i = 0; i < k; ++i) {
    for (const NodeId w : hierarchy.phase_sources(i)) {
      jobs.push_back(GrowJob{i, w});
    }
  }
  std::vector<std::vector<std::pair<NodeId, Dist>>> grown(jobs.size());
  {
    const obs::Span grow_span("tz_cluster_growth",
                              static_cast<std::uint64_t>(jobs.size()));
    tp.for_each_dynamic(jobs.size(), [&](std::size_t, std::size_t j) {
      const auto [level, w] = jobs[j];
      const std::vector<DistKey>* next_gate =
          level + 1 < k ? &gates.gate[level + 1] : nullptr;
      std::vector<std::pair<NodeId, Dist>>& members = grown[j];
      sp_pruned_dijkstra(g, w, thread_workspace(), [&](NodeId x, Dist d) {
        if (next_gate != nullptr && !(DistKey{d, w} < (*next_gate)[x])) {
          return false;
        }
        members.emplace_back(x, d);
        return true;
      });
    });
  }
  const obs::Span merge_span("tz_bunch_merge");
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    for (const auto& [x, d] : grown[j]) {
      labels[x].add_bunch_entry(BunchEntry{jobs[j].source, d});
    }
  }
  tp.for_each_dynamic(n, [&](std::size_t, std::size_t u) {
    labels[u].sort_bunch();
  });
  return LabelArena::from_builders(std::move(labels));
}

}  // namespace dsketch
