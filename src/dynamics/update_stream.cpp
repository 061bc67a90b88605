#include "dynamics/update_stream.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/assert.hpp"

namespace dsketch {

namespace {

/// Connectivity of `n` nodes under `edges` with one edge skipped
/// (skip == edges.size() skips nothing). Plain BFS over an adjacency
/// rebuilt per call — update streams run at bench scale (n <= a few
/// thousand), where O(n + m) per delete attempt is noise next to the
/// repair searches the update feeds.
bool connected_without(NodeId n, const std::vector<Edge>& edges,
                       std::size_t skip) {
  if (n == 0) return true;
  std::vector<std::vector<NodeId>> adj(n);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (i == skip) continue;
    adj[edges[i].u].push_back(edges[i].v);
    adj[edges[i].v].push_back(edges[i].u);
  }
  std::vector<char> seen(n, 0);
  std::vector<NodeId> queue{0};
  seen[0] = 1;
  NodeId reached = 1;
  while (!queue.empty()) {
    const NodeId u = queue.back();
    queue.pop_back();
    for (const NodeId v : adj[u]) {
      if (!seen[v]) {
        seen[v] = 1;
        ++reached;
        queue.push_back(v);
      }
    }
  }
  return reached == n;
}

}  // namespace

const char* update_kind_name(UpdateKind kind) {
  switch (kind) {
    case UpdateKind::kInsert: return "insert";
    case UpdateKind::kDelete: return "delete";
    case UpdateKind::kReweight: return "reweight";
  }
  return "?";
}

UpdateStream::UpdateStream(const Graph& initial,
                           const UpdateStreamConfig& cfg)
    : cfg_(cfg), rng_(cfg.seed), n_(initial.num_nodes()),
      edges_(initial.edges()) {
  if (n_ < 2) {
    throw std::runtime_error("UpdateStream needs at least 2 nodes");
  }
  if (cfg_.wmin == 0 || cfg_.wmax < cfg_.wmin) {
    throw std::runtime_error("UpdateStream: want 1 <= wmin <= wmax");
  }
  DS_CHECK(initial.connected());
  edge_set_.reserve(edges_.size() * 2);
  for (const Edge& e : edges_) edge_set_.insert(key(e.u, e.v));
  rebuild_graph();
}

void UpdateStream::rebuild_graph() {
  current_ = Graph::from_edges(n_, edges_);
}

bool UpdateStream::try_insert(EdgeUpdate& out) {
  // A clique has no free slot; bail after enough rejections that a
  // near-clique graph falls through to delete/reweight instead.
  const std::uint64_t pair_space = static_cast<std::uint64_t>(n_) * (n_ - 1) / 2;
  if (edge_set_.size() >= pair_space) return false;
  for (int attempt = 0; attempt < 64; ++attempt) {
    const auto u = static_cast<NodeId>(rng_.below(n_));
    const auto v = static_cast<NodeId>(rng_.below(n_));
    if (u == v || edge_set_.count(key(u, v))) continue;
    const auto w = static_cast<Weight>(
        rng_.range(static_cast<std::int64_t>(cfg_.wmin),
                   static_cast<std::int64_t>(cfg_.wmax)));
    out.kind = UpdateKind::kInsert;
    out.u = std::min(u, v);
    out.v = std::max(u, v);
    out.weight = w;
    out.old_weight = 0;
    edges_.push_back(Edge{out.u, out.v, w});
    edge_set_.insert(key(u, v));
    return true;
  }
  return false;
}

bool UpdateStream::deletable(std::size_t index) const {
  return connected_without(n_, edges_, index);
}

bool UpdateStream::try_delete(EdgeUpdate& out) {
  // Draw candidates without replacement (a partial Fisher-Yates over
  // edges_): a bridge is swapped past the end of the live range instead
  // of rerolled, so a delete fails only when every edge is a bridge —
  // the graph is a spanning tree — and the kind falls through.
  for (std::size_t live = edges_.size(); live > 0; --live) {
    const std::size_t i = rng_.below(live);
    if (!deletable(i)) {
      std::swap(edges_[i], edges_[live - 1]);
      continue;
    }
    const Edge e = edges_[i];
    out.kind = UpdateKind::kDelete;
    out.u = e.u;
    out.v = e.v;
    out.weight = 0;
    out.old_weight = e.weight;
    edge_set_.erase(key(e.u, e.v));
    edges_[i] = edges_.back();
    edges_.pop_back();
    return true;
  }
  return false;
}

bool UpdateStream::try_reweight(EdgeUpdate& out) {
  if (edges_.empty() || cfg_.wmin == cfg_.wmax) return false;
  const std::size_t i = rng_.below(edges_.size());
  Edge& e = edges_[i];
  Weight w = e.weight;
  while (w == e.weight) {
    w = static_cast<Weight>(
        rng_.range(static_cast<std::int64_t>(cfg_.wmin),
                   static_cast<std::int64_t>(cfg_.wmax)));
  }
  out.kind = UpdateKind::kReweight;
  out.u = e.u;
  out.v = e.v;
  out.weight = w;
  out.old_weight = e.weight;
  e.weight = w;
  return true;
}

EdgeUpdate UpdateStream::next() {
  const double total =
      cfg_.insert_weight + cfg_.delete_weight + cfg_.reweight_weight;
  if (total <= 0) {
    throw std::runtime_error("UpdateStream: all kind weights are zero");
  }
  EdgeUpdate update;
  // Draw a kind from the mix, then fall through the other kinds in a
  // fixed order if the drawn one is infeasible right now.
  const double x = rng_.uniform() * total;
  UpdateKind first = UpdateKind::kReweight;
  if (x < cfg_.insert_weight) {
    first = UpdateKind::kInsert;
  } else if (x < cfg_.insert_weight + cfg_.delete_weight) {
    first = UpdateKind::kDelete;
  }
  const UpdateKind order[3] = {
      first,
      first == UpdateKind::kInsert ? UpdateKind::kDelete
                                   : UpdateKind::kInsert,
      first == UpdateKind::kReweight ? UpdateKind::kDelete
                                     : UpdateKind::kReweight};
  for (const UpdateKind kind : order) {
    const bool ok = kind == UpdateKind::kInsert    ? try_insert(update)
                    : kind == UpdateKind::kDelete  ? try_delete(update)
                                                   : try_reweight(update);
    if (ok) {
      rebuild_graph();
      ++applied_;
      return update;
    }
  }
  throw std::runtime_error(
      "UpdateStream: no feasible update (graph too constrained)");
}

}  // namespace dsketch
