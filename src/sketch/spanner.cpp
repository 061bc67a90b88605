#include "sketch/spanner.hpp"

#include <unordered_set>
#include <utility>

#include "sketch/path_extraction.hpp"
#include "util/assert.hpp"

namespace dsketch {

std::vector<Edge> extract_spanner(const Graph& g, const LabelArena& labels) {
  DS_CHECK_MSG(labels.num_nodes() == g.num_nodes(),
               "labels do not cover the graph");
  std::unordered_set<std::uint64_t> picked;
  std::vector<Edge> spanner;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const LabelView lu = labels.view(u);
    for (std::uint32_t j = 0; j < lu.count; ++j) {
      const NodeId w = lu.entry(j).node;
      if (w == u) continue;
      const std::optional<std::uint32_t> e = next_hop(g, labels, u, w);
      if (!e) continue;
      const HalfEdge& he = g.neighbors(u)[*e];
      Edge edge{u, he.to, he.weight};
      if (edge.u > edge.v) std::swap(edge.u, edge.v);
      const std::uint64_t key =
          (static_cast<std::uint64_t>(edge.u) << 32) | edge.v;
      if (picked.insert(key).second) spanner.push_back(edge);
    }
  }
  return spanner;
}

Graph spanner_graph(const Graph& g, const LabelArena& labels) {
  return Graph::from_edges(g.num_nodes(), extract_spanner(g, labels));
}

}  // namespace dsketch
