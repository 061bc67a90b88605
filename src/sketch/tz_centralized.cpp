#include "sketch/tz_centralized.hpp"

#include <algorithm>
#include <memory>
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

  // Cluster growth: one pruned Dijkstra from every phase source w (w in
  // A_i \ A_{i+1} for i = level_of(w) - 1), gated at relaxation. Node x
  // is queued only at a distance d with key(d, w) < gate_{i+1}(x), so the
  // search reaches exactly C(w) = {x : w in B(x)}: the cluster is closed
  // under shortest paths (the consistency argument that makes the
  // distributed gate sound), and with zero-weight edges w itself may fail
  // its gate, and then C(w) is empty. Sources are independent: grow them
  // in parallel, one kernel workspace per lane, in id order.
  std::vector<NodeId> sources;
  for (NodeId w = 0; w < n; ++w) {
    if (hierarchy.level_of(w) > 0) sources.push_back(w);
  }
  std::vector<std::vector<std::pair<NodeId, Dist>>> grown(sources.size());
  std::size_t kept = 0;
  {
    obs::Span grow_span("tz_cluster_growth", 0);
    tp.for_each_dynamic(sources.size(), [&](std::size_t, std::size_t j) {
      const NodeId w = sources[j];
      const std::uint32_t next = hierarchy.level_of(w);
      const DistKey* next_gate = next < k ? gates.gate[next].data() : nullptr;
      std::vector<std::pair<NodeId, Dist>>& members = grown[j];
      SpWorkspace& ws = thread_workspace();
      sp_pruned_dijkstra(g, w, ws, [&](NodeId x, Dist d) {
        if (next_gate != nullptr && !(DistKey{d, w} < next_gate[x])) {
          return false;
        }
        members.emplace_back(x, d);
        return true;
      });
      // Admitted nodes are the reached ones; read their final distances.
      for (auto& [x, d] : members) d = ws.dist(x);
    });
    for (const auto& members : grown) kept += members.size();
    grow_span.set_value(kept);
  }

  // Bunch transpose: the per-source member lists become one CSR over
  // nodes. The sources are cut into one run of contiguous sources per
  // lane, at equal entry counts; each run counts its entries per node,
  // one prefix sum turns the counts into per-run cursors, and each run
  // scatters its entries through its own cursors, so no two lanes write
  // one slot. Runs and the sources within a run are in id order, so each
  // node's slice comes out sorted by id, whatever the lane count.
  std::vector<std::size_t> offset(std::size_t{n} + 1, 0);
  std::unique_ptr<BunchEntry[]> entries;
  {
    const obs::Span transpose_span("tz_bunch_transpose");
    const std::size_t runs =
        std::min(tp.lanes(), std::max<std::size_t>(sources.size(), 1));
    std::vector<std::size_t> first(runs + 1, sources.size());
    first[0] = 0;
    std::size_t seen = 0;
    for (std::size_t j = 0, r = 1; j < sources.size() && r < runs; ++j) {
      seen += grown[j].size();
      while (r < runs && seen * runs >= r * kept) first[r++] = j + 1;
    }
    std::vector<std::size_t> cursor(runs * n, 0);
    tp.parallel_for(runs, [&](std::size_t r) {
      std::size_t* count = cursor.data() + r * n;
      for (std::size_t j = first[r]; j < first[r + 1]; ++j) {
        for (const auto& [x, d] : grown[j]) ++count[x];
      }
    });
    std::size_t at = 0;
    for (NodeId x = 0; x < n; ++x) {
      offset[x] = at;
      for (std::size_t r = 0; r < runs; ++r) {
        const std::size_t c = cursor[r * n + x];
        cursor[r * n + x] = at;
        at += c;
      }
    }
    offset[n] = at;
    entries = std::make_unique_for_overwrite<BunchEntry[]>(kept);
    tp.parallel_for(runs, [&](std::size_t r) {
      std::size_t* next = cursor.data() + r * n;
      for (std::size_t j = first[r]; j < first[r + 1]; ++j) {
        // Moved out, so the list is freed on this lane once scattered.
        const std::vector<std::pair<NodeId, Dist>> members =
            std::move(grown[j]);
        for (const auto& [x, d] : members) {
          entries[next[x]++] = BunchEntry{sources[j], d};
        }
      }
    });
  }

  const obs::Span pack_span("tz_label_pack");
  // Pivots in node order, so each label's pivots are one span.
  std::vector<DistKey> pivots(std::size_t{n} * k);
  tp.for_each_block(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t u = begin; u < end; ++u) {
      for (std::uint32_t i = 0; i < k; ++i) {
        pivots[u * k + i] = gates.gate[i][u];
      }
    }
  });
  return LabelArena::pack(
      n, k,
      [&](NodeId u) {
        return LabelParts{
            std::span<const DistKey>(pivots).subspan(std::size_t{u} * k, k),
            std::span<const BunchEntry>(entries.get() + offset[u],
                                        offset[u + 1] - offset[u])};
      },
      tp);
}

}  // namespace dsketch
