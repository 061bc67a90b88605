// Seeded, deterministic edge churn: the one model of a changing network.
//
// The paper's sketches are computed for one fixed topology (§1, §5).
// This stream moves it: inserts, deletes, and weight changes in a
// configurable mix, applied one at a time to a live graph. E14 drives the
// repair / rebuild machinery with it update by update; E11's edge
// failures are a delete-only stream, advanced through growing targets so
// the failure sets nest. The stream owns the evolving graph: next()
// draws an update, applies it, and returns it, keeping the graph
// connected throughout (deletes draw candidates without replacement and
// never take a bridge). Same seed + same initial graph = same stream,
// bit for bit.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "graph/graph.hpp"
#include "util/pair_key.hpp"
#include "util/rng.hpp"

namespace dsketch {

/// One topology change, as applied to the stream's graph.
enum class UpdateKind : std::uint8_t {
  kInsert,   ///< new edge (u, v, weight)
  kDelete,   ///< existing edge removed (old_weight records it)
  kReweight  ///< existing edge weight changed old_weight -> weight
};

/// Human-readable kind name ("insert" / "delete" / "reweight").
const char* update_kind_name(UpdateKind kind);

struct EdgeUpdate {
  UpdateKind kind = UpdateKind::kInsert;
  NodeId u = 0;
  NodeId v = 0;
  Weight weight = 0;      ///< new weight (insert / reweight); 0 for delete
  Weight old_weight = 0;  ///< previous weight (delete / reweight)
};

/// True when the update can only shrink distances (an insert, or a
/// reweight to a smaller weight) — the repairable case for one-sided
/// sketches. Deletes and weight increases can grow distances, which is
/// what turns stale estimates into guarantee violations.
inline bool is_distance_decrease(const EdgeUpdate& update) {
  switch (update.kind) {
    case UpdateKind::kInsert: return true;
    case UpdateKind::kDelete: return false;
    case UpdateKind::kReweight: return update.weight < update.old_weight;
  }
  return false;
}

/// Churn mix and weight range of a stream. Kind weights are relative
/// (they need not sum to 1); a kind that is impossible on the current
/// graph (deleting from a tree, inserting into a clique) falls through
/// to the next feasible one, so the stream never stalls.
struct UpdateStreamConfig {
  double insert_weight = 1.0;
  double delete_weight = 1.0;
  double reweight_weight = 1.0;
  Weight wmin = 1;   ///< new-weight range for inserts and reweights
  Weight wmax = 16;
  std::uint64_t seed = 7;
};

/// The evolving graph plus its deterministic update stream.
class UpdateStream {
 public:
  /// Takes the initial topology; `initial` must be connected.
  UpdateStream(const Graph& initial, const UpdateStreamConfig& cfg);

  /// Draws the next update, applies it to the graph, and returns it.
  EdgeUpdate next();

  /// The graph with every update so far applied. The reference stays
  /// valid across next() calls (the graph object is rebuilt in place).
  const Graph& graph() const { return current_; }

  std::uint64_t applied() const { return applied_; }

 private:
  static std::uint64_t key(NodeId u, NodeId v) {
    return canonical_pair_key(u, v);
  }

  bool try_insert(EdgeUpdate& out);
  bool try_delete(EdgeUpdate& out);
  bool try_reweight(EdgeUpdate& out);
  /// True when removing edges_[index] keeps the graph connected.
  bool deletable(std::size_t index) const;
  void rebuild_graph();

  UpdateStreamConfig cfg_;
  Rng rng_;
  NodeId n_ = 0;
  std::vector<Edge> edges_;
  std::unordered_set<std::uint64_t> edge_set_;
  Graph current_;
  std::uint64_t applied_ = 0;
};

}  // namespace dsketch
