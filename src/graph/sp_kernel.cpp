#include "graph/sp_kernel.hpp"

#include "obs/trace.hpp"

namespace dsketch {
namespace {

/// Plain distance relaxation: dist is the unique shortest-path fixed point.
struct DistPolicy {
  SpWorkspace& ws;
  bool seed(NodeId s) {
    if (ws.fresh(s)) return false;  // duplicate source
    ws.touch(s);
    ws.dist_ref(s) = 0;
    return true;
  }
  bool relax(NodeId, NodeId v, Dist nd) {
    if (ws.fresh(v) && ws.dist_ref(v) <= nd) return false;
    ws.touch(v);
    ws.dist_ref(v) = nd;
    return true;
  }
};

/// (dist, owner) lexicographic relaxation. Equal-distance owner
/// refinements re-enter the frontier, so the result is the least fixed
/// point — owner[u] is the smallest-keyed nearest source regardless of
/// pop-order ties.
struct OwnerPolicy {
  SpWorkspace& ws;
  bool seed(NodeId s) {
    if (!ws.fresh(s)) {
      ws.touch(s);
      ws.dist_ref(s) = 0;
      ws.owner_ref(s) = s;
      return true;
    }
    if (s < ws.owner_ref(s)) {  // duplicate source list entry
      ws.owner_ref(s) = s;
      return true;
    }
    return false;
  }
  bool relax(NodeId u, NodeId v, Dist nd) {
    if (!ws.fresh(v)) {
      ws.touch(v);
      ws.dist_ref(v) = nd;
      ws.owner_ref(v) = ws.owner_ref(u);
      return true;
    }
    if (nd < ws.dist_ref(v) ||
        (nd == ws.dist_ref(v) && ws.owner_ref(u) < ws.owner_ref(v))) {
      ws.dist_ref(v) = nd;
      ws.owner_ref(v) = ws.owner_ref(u);
      return true;
    }
    return false;
  }
};

/// (dist, hops) lexicographic relaxation for the S-diameter searches.
struct MinHopsPolicy {
  SpWorkspace& ws;
  bool seed(NodeId s) {
    if (ws.fresh(s)) return false;
    ws.touch(s);
    ws.dist_ref(s) = 0;
    ws.hops_ref(s) = 0;
    return true;
  }
  bool relax(NodeId u, NodeId v, Dist nd) {
    const std::uint32_t nh = ws.hops_ref(u) + 1;
    if (!ws.fresh(v)) {
      ws.touch(v);
      ws.dist_ref(v) = nd;
      ws.hops_ref(v) = nh;
      return true;
    }
    if (nd < ws.dist_ref(v) ||
        (nd == ws.dist_ref(v) && nh < ws.hops_ref(v))) {
      ws.dist_ref(v) = nd;
      ws.hops_ref(v) = nh;
      return true;
    }
    return false;
  }
};

}  // namespace

SpWorkspace& thread_workspace() {
  thread_local SpWorkspace ws;
  return ws;
}

void sp_dijkstra(const Graph& g, NodeId source, SpWorkspace& ws,
                 SpEngine engine) {
  const obs::Span span("sp_dijkstra");
  ws.prepare(g.num_nodes());
  DistPolicy policy{ws};
  const NodeId src[1] = {source};
  sp_detail::search(g, ws, src, policy, engine);
}

void sp_multi_source(const Graph& g, std::span<const NodeId> sources,
                     SpWorkspace& ws, SpEngine engine) {
  const obs::Span span("sp_multi_source",
                       static_cast<std::uint64_t>(sources.size()));
  ws.prepare(g.num_nodes());
  ws.ensure_owner();
  OwnerPolicy policy{ws};
  sp_detail::search(g, ws, sources, policy, engine);
}

void sp_hop_bfs(const Graph& g, NodeId source, SpWorkspace& ws) {
  ws.prepare(g.num_nodes());
  ws.ensure_hops();
  std::vector<NodeId>& queue = ws.bfs_queue_;
  queue.clear();
  ws.touch(source);
  ws.dist_ref(source) = 0;
  ws.hops_ref(source) = 0;
  queue.push_back(source);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    const std::uint32_t nh = ws.hops_ref(u) + 1;
    for (const HalfEdge& he : g.neighbors(u)) {
      if (ws.fresh(he.to)) continue;
      ws.touch(he.to);
      ws.dist_ref(he.to) = nh;  // hop count doubles as the distance
      ws.hops_ref(he.to) = nh;
      queue.push_back(he.to);
    }
  }
}

void sp_dijkstra_min_hops(const Graph& g, NodeId source, SpWorkspace& ws,
                          SpEngine engine) {
  ws.prepare(g.num_nodes());
  ws.ensure_hops();
  MinHopsPolicy policy{ws};
  const NodeId src[1] = {source};
  sp_detail::search(g, ws, src, policy, engine);
}

}  // namespace dsketch
