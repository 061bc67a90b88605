// Incremental repair of Thorup–Zwick sketches under edge churn, plus the
// policy that decides when repair is no longer enough.
//
// The paper's sketches are preprocessed for one fixed topology (§1, §5);
// E11 quantifies how fast they rot as a delete-only UpdateStream fails
// edges. This module is the other half of the loop — it keeps a sketch
// *usable* while the graph moves:
//
//   - Distance-decreasing updates (edge inserts, weight decreases) are
//     repaired: every label distance (pivot and bunch entries)
//     stores an exact point-to-point distance, and after inserting
//     (a, b, w) the new distance is
//         d'(x, y) = min(d(x, y), Da(x) + w + Db(y), Db(x) + w + Da(y))
//     with Da/Db one full SSSP each from the endpoints on the updated
//     graph, after which every label is scanned. Records are write-once,
//     so every label is written into a fresh slab (a label with a
//     tightened distance re-packed) that replaces the old arena; a
//     snapshot taken earlier keeps the old bytes alive. Repair preserves
//     the one-sided guarantee (estimates never drop below the new true
//     distance) and tightens estimates toward it.
//
//   - Distance-increasing updates (deletes, weight increases) cannot be
//     repaired from the endpoints alone — stale entries may now
//     *underestimate*, which is the guarantee violation E11 measures.
//     RebuildPolicy watches the update stream (counts, unrepairable
//     updates, and an optional sampled underestimate-rate probe, scored
//     by evaluate_stretch like E11 and E14's freshness rows) and fires a
//     full background rebuild when a budget is exceeded; the serving
//     tier swaps the rebuilt oracle in via serve/snapshot.hpp.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/oracle.hpp"
#include "dynamics/update_stream.hpp"
#include "graph/graph.hpp"
#include "sketch/tz_label.hpp"
#include "util/thread_pool.hpp"

namespace dsketch {

/// Immutable TZ-label oracle — what TzDynamicSketch publishes to the
/// serving tier. A frozen label arena with the Lemma 3.2 query; unlike a
/// built SketchStore it carries no build cost and no save path (a
/// repaired sketch is a transient serving artifact, not a persisted one;
/// SketchStore::from_oracle packs it when it must be shipped, sharing its
/// bytes and recording epsilon 0).
class TzLabelOracle final : public DistanceOracle {
 public:
  TzLabelOracle(LabelArena labels, std::uint32_t k);

  Dist query(NodeId u, NodeId v) const override;
  NodeId num_nodes() const override { return labels_.num_nodes(); }
  std::size_t size_words(NodeId u) const override {
    return labels_.size_words(u);
  }
  std::string scheme() const override { return "tz"; }
  std::string guarantee() const override;
  Capabilities capabilities() const override;

  const LabelArena& labels() const { return labels_; }
  std::uint32_t k() const { return k_; }

 private:
  LabelArena labels_;
  std::uint32_t k_;
};

/// Counters across the lifetime of one TzDynamicSketch.
struct RepairStats {
  std::uint64_t updates_seen = 0;     ///< apply() calls
  std::uint64_t repaired = 0;         ///< repaired by re-packing
  std::uint64_t unrepairable = 0;     ///< needed a rebuild to fix
  std::uint64_t entries_improved = 0; ///< label distances tightened
  std::uint64_t rebuilds = 0;         ///< full rebuilds performed
};

/// A TZ sketch that tracks a changing graph: repair what can be repaired,
/// rebuild when the policy says so, snapshot for serving at any point.
class TzDynamicSketch {
 public:
  /// Builds the initial sketch (centralized construction — the fast
  /// in-process path — over Hierarchy::sample(n, k, seed), the hierarchy
  /// the registry build draws too). `pool == nullptr` uses the global
  /// pool.
  TzDynamicSketch(const Graph& g, std::uint32_t k, std::uint64_t seed,
                  ThreadPool* pool = nullptr);

  /// Applies one update that has already happened to `updated` (the
  /// graph AFTER the change). Returns true when the sketch was repaired
  /// (inserts and weight decreases); the estimates then stay >= the new
  /// true distances. Returns false for deletes and weight
  /// increases: the sketch is left stale (it may underestimate) and
  /// unrepaired_since_rebuild() grows until rebuild() resets it.
  bool apply(const Graph& updated, const EdgeUpdate& update);

  /// Full reconstruction on the current graph; clears the unrepaired
  /// debt. This is the expensive step RebuildPolicy schedules.
  void rebuild(const Graph& g, std::uint64_t seed,
               ThreadPool* pool = nullptr);

  /// An immutable oracle over the current labels for the serving tier.
  /// It shares the arena's bytes (no copy) and keeps them alive past the
  /// next apply() or rebuild(), and past this sketch.
  std::shared_ptr<const DistanceOracle> snapshot() const;

  std::uint32_t k() const { return k_; }
  const RepairStats& stats() const { return stats_; }
  /// Distance-increasing updates absorbed since the last rebuild — the
  /// count of latent guarantee violations repair could not prevent.
  std::size_t unrepaired_since_rebuild() const { return unrepaired_; }
  /// The live labels (test hook: repair exactness is checked entry by
  /// entry against fresh ground truth). A view into them dies at the next
  /// apply() or rebuild(), which replace the arena.
  const LabelArena& labels() const { return labels_; }

 private:
  void build_labels(const Graph& g, std::uint64_t seed, ThreadPool* pool);

  std::uint32_t k_ = 0;
  LabelArena labels_;
  std::size_t unrepaired_ = 0;
  RepairStats stats_;
};

/// When to stop repairing and rebuild. All triggers are budgets; a zero
/// budget disables that trigger.
struct RebuildPolicyConfig {
  /// Rebuild after this many updates since the last rebuild.
  std::size_t max_updates = 0;
  /// Rebuild after this many *unrepairable* (distance-increasing)
  /// updates since the last rebuild.
  std::size_t max_unrepaired = 0;
  /// Rebuild when the probed underestimate rate exceeds this.
  double max_underestimate_rate = 0.0;
  /// Probe cadence: estimate the underestimate rate every N updates
  /// (0 = never probe). Each probe costs `probe_sources` exact SSSPs.
  std::size_t probe_every = 0;
  std::size_t probe_sources = 2;
};

/// Tracks churn against the budgets above. Drive it with one
/// note_update() per applied update; it answers "rebuild now?" and
/// remembers the last probed violation rate for reporting.
class RebuildPolicy {
 public:
  explicit RebuildPolicy(const RebuildPolicyConfig& cfg) : cfg_(cfg) {}

  /// Records one applied update (`repaired` = repaired by apply()) and
  /// returns true when any budget is now exceeded. `current` and
  /// `serving` feed the optional underestimate-rate probe — `serving`
  /// is the oracle traffic is actually answered from.
  bool note_update(const Graph& current, const DistanceOracle& serving,
                   bool repaired);

  /// Resets all budgets after the caller performed a rebuild.
  void note_rebuilt();

  std::size_t updates_since_rebuild() const { return updates_; }
  std::size_t unrepaired_since_rebuild() const { return unrepaired_; }
  /// Rate from the most recent probe (-1 before any probe ran).
  double last_probed_rate() const { return last_rate_; }
  std::size_t probes_run() const { return probes_; }

 private:
  RebuildPolicyConfig cfg_;
  std::size_t updates_ = 0;
  std::size_t unrepaired_ = 0;
  std::size_t probes_ = 0;
  double last_rate_ = -1.0;
};

}  // namespace dsketch
