#include "sketch/path_extraction.hpp"

#include <span>

#include "util/assert.hpp"

namespace dsketch {

std::optional<std::uint32_t> next_hop(const Graph& g, const LabelArena& labels,
                                      NodeId x, NodeId target) {
  DS_CHECK_MSG(labels.num_nodes() == g.num_nodes() && x < g.num_nodes(),
               "labels do not cover the graph");
  const auto d_L = [&](NodeId y) {
    return y == target ? Dist{0} : labels.view(y).bunch_dist(target);
  };
  const Dist dx = d_L(x);
  if (dx == kInfDist) return std::nullopt;
  const std::span<const HalfEdge> adj = g.neighbors(x);
  for (std::uint32_t e = 0; e < adj.size(); ++e) {
    const Dist dy = d_L(adj[e].to);
    if (dy != kInfDist && adj[e].weight + dy == dx) return e;
  }
  return std::nullopt;
}

std::vector<NodeId> route_to_target(const Graph& g, const LabelArena& labels,
                                    NodeId from, NodeId target) {
  std::vector<NodeId> path{from};
  for (NodeId x = from; x != target;) {
    const std::optional<std::uint32_t> e = next_hop(g, labels, x, target);
    if (!e || path.size() > g.num_nodes()) return {};
    x = g.neighbors(x)[*e].to;
    path.push_back(x);
  }
  return path;
}

Dist path_weight(const Graph& g, const std::vector<NodeId>& nodes) {
  Dist total = 0;
  for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
    bool found = false;
    for (const HalfEdge& he : g.neighbors(nodes[i])) {
      if (he.to == nodes[i + 1]) {
        // parallel edges deduplicated at build; first match is the edge
        total += he.weight;
        found = true;
        break;
      }
    }
    DS_CHECK_MSG(found, "path uses a non-edge");
  }
  return total;
}

ApproxPath extract_approximate_path(const Graph& g, const LabelArena& labels,
                                    NodeId u, NodeId v) {
  DS_CHECK_MSG(labels.num_nodes() == g.num_nodes() && u < g.num_nodes() &&
                   v < g.num_nodes(),
               "labels do not cover the graph");
  ApproxPath out;
  if (u == v) {
    out.nodes = {u};
    out.witness = u;
    return out;
  }
  out.weight = kInfDist;
  const LabelView lu = labels.view(u);
  const LabelView lv = labels.view(v);
  const TzQueryTrace trace = tz_query_trace(lu, lv);
  if (trace.estimate == kInfDist) return out;
  // The witness pivot lies in both bunches; route each endpoint to it.
  const NodeId w = trace.used_u_pivot ? lu.pivot(trace.level).id
                                      : lv.pivot(trace.level).id;
  std::vector<NodeId> from_u = route_to_target(g, labels, u, w);
  const std::vector<NodeId> from_v = route_to_target(g, labels, v, w);
  if (from_u.empty() || from_v.empty()) return out;
  out.nodes = std::move(from_u);
  out.nodes.insert(out.nodes.end(), from_v.rbegin() + 1, from_v.rend());
  out.weight = path_weight(g, out.nodes);
  out.witness = w;
  return out;
}

}  // namespace dsketch
