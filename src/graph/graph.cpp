#include "graph/graph.hpp"

#include <algorithm>
#include <queue>

#include "util/assert.hpp"

namespace dsketch {

Graph Graph::from_edges(NodeId n, const std::vector<Edge>& edges) {
  Graph g;
  g.n_ = n;
  g.edges_ = edges;
  g.offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const Edge& e : edges) {
    DS_CHECK(e.u < n && e.v < n && e.u != e.v);
    ++g.offsets_[e.u + 1];
    ++g.offsets_[e.v + 1];
    g.max_weight_ = std::max(g.max_weight_, e.weight);
  }
  for (std::size_t i = 1; i <= n; ++i) g.offsets_[i] += g.offsets_[i - 1];
  g.adj_.resize(g.offsets_[n]);
  std::vector<std::size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const Edge& e : edges) {
    g.adj_[cursor[e.u]++] = HalfEdge{e.v, e.weight};
    g.adj_[cursor[e.v]++] = HalfEdge{e.u, e.weight};
  }
  // Sort each adjacency by (neighbor, weight) so iteration order — and thus
  // simulator message delivery order — is canonical for a given edge set.
  for (NodeId u = 0; u < n; ++u) {
    std::sort(g.adj_.begin() + static_cast<std::ptrdiff_t>(g.offsets_[u]),
              g.adj_.begin() + static_cast<std::ptrdiff_t>(g.offsets_[u + 1]),
              [](const HalfEdge& a, const HalfEdge& b) {
                return a.to != b.to ? a.to < b.to : a.weight < b.weight;
              });
  }
  return g;
}

Graph Graph::from_adjacency(NodeId n, std::vector<std::size_t> offsets,
                            std::vector<HalfEdge> adj) {
  DS_CHECK(offsets.size() == static_cast<std::size_t>(n) + 1);
  DS_CHECK(offsets.empty() || offsets.front() == 0);
  Graph g;
  g.n_ = n;
  // Compact in place: sort each row by (neighbor, weight), keep the first
  // occurrence of every neighbor (= its smallest weight), drop self
  // half-edges. write trails the row scan so no second buffer is needed.
  std::size_t write = 0;
  std::size_t row_begin = 0;
  for (NodeId u = 0; u < n; ++u) {
    const std::size_t row_end = offsets[u + 1];
    DS_CHECK(row_begin <= row_end && row_end <= adj.size());
    std::sort(adj.begin() + static_cast<std::ptrdiff_t>(row_begin),
              adj.begin() + static_cast<std::ptrdiff_t>(row_end),
              [](const HalfEdge& a, const HalfEdge& b) {
                return a.to != b.to ? a.to < b.to : a.weight < b.weight;
              });
    const std::size_t compact_begin = write;
    NodeId last = kInvalidNode;
    for (std::size_t i = row_begin; i < row_end; ++i) {
      const HalfEdge he = adj[i];
      DS_CHECK(he.to < n);
      if (he.to == u || he.to == last) continue;
      last = he.to;
      adj[write++] = he;
    }
    row_begin = row_end;
    offsets[u] = compact_begin;
  }
  offsets[n] = write;
  adj.resize(write);
  g.offsets_ = std::move(offsets);
  g.adj_ = std::move(adj);
  g.edges_.reserve(write / 2);
  for (NodeId u = 0; u < n; ++u) {
    for (std::size_t i = g.offsets_[u]; i < g.offsets_[u + 1]; ++i) {
      const HalfEdge he = g.adj_[i];
      g.max_weight_ = std::max(g.max_weight_, he.weight);
      if (u < he.to) g.edges_.push_back(Edge{u, he.to, he.weight});
    }
  }
  return g;
}

std::size_t Graph::twin(NodeId u, std::size_t local) const {
  const auto adj = neighbors(u);
  const NodeId v = adj[local].to;
  std::size_t run_start = local;
  while (run_start > 0 && adj[run_start - 1].to == v) --run_start;
  const auto vadj = neighbors(v);
  const auto it = std::lower_bound(
      vadj.begin(), vadj.end(), u,
      [](const HalfEdge& he, NodeId target) { return he.to < target; });
  const std::size_t slot =
      static_cast<std::size_t>(it - vadj.begin()) + (local - run_start);
  DS_CHECK(slot < vadj.size() && vadj[slot].to == u);
  return half_edge_index(v, slot);
}

Dist Graph::total_weight() const {
  Dist total = 0;
  for (const Edge& e : edges_) total += e.weight;
  return total;
}

bool Graph::connected() const {
  if (n_ == 0) return true;
  std::vector<char> seen(n_, 0);
  std::queue<NodeId> frontier;
  frontier.push(0);
  seen[0] = 1;
  NodeId reached = 1;
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (const HalfEdge& he : neighbors(u)) {
      if (!seen[he.to]) {
        seen[he.to] = 1;
        ++reached;
        frontier.push(he.to);
      }
    }
  }
  return reached == n_;
}

void GraphBuilder::add_edge(NodeId u, NodeId v, Weight w) {
  if (u == v) return;
  DS_CHECK(u < n_ && v < n_);
  if (u > v) std::swap(u, v);
  edges_.push_back(Edge{u, v, w});
  if (indexed_) index_.insert(key(u, v));
}

bool GraphBuilder::has_edge(NodeId u, NodeId v) const {
  if (!indexed_) {
    index_.reserve(edges_.size() * 2);
    for (const Edge& e : edges_) index_.insert(key(e.u, e.v));
    indexed_ = true;
  }
  return index_.count(key(u, v)) != 0;
}

Graph GraphBuilder::build() const {
  std::vector<Edge> unique = edges_;
  // Sort by (u, v, weight): the first of each pair run carries the
  // smallest weight, exactly what the old per-add dedup kept.
  std::sort(unique.begin(), unique.end(), [](const Edge& a, const Edge& b) {
    if (a.u != b.u) return a.u < b.u;
    if (a.v != b.v) return a.v < b.v;
    return a.weight < b.weight;
  });
  unique.erase(std::unique(unique.begin(), unique.end(),
                           [](const Edge& a, const Edge& b) {
                             return a.u == b.u && a.v == b.v;
                           }),
               unique.end());
  return Graph::from_edges(n_, unique);
}

}  // namespace dsketch
