// Stretch evaluation against exact ground truth.
//
// Stretch of an estimator on pair (u,v) is est(u,v)/d(u,v); all paper
// schemes guarantee est >= d (checked here and surfaced as a violation
// count, which must be zero for the sketch schemes — baselines like Vivaldi
// may violate it, which is part of what E9 demonstrates).
//
// ε-far classification (§4): v is ε-far from u iff at least εn nodes are
// strictly closer to u than v is. Computed exactly from the ground-truth
// row of u.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/oracle.hpp"
#include "graph/graph.hpp"
#include "graph/shortest_paths.hpp"
#include "util/stats.hpp"

namespace dsketch {

/// Must be safe to call concurrently: evaluate_stretch fans rows out over
/// the thread pool. Every in-library estimator is a pure read of built
/// sketches, which qualifies.
using Estimator = std::function<Dist(NodeId, NodeId)>;

struct StretchReport {
  SampleSet all;        ///< stretch over every sampled pair
  SampleSet far_only;   ///< pairs where v is ε-far from u (ε > 0 runs only)
  SampleSet near_only;  ///< the complement (no guarantee applies)
  std::size_t underestimates = 0;  ///< pairs with est < d (must be 0 for
                                   ///< the paper's schemes)
  std::size_t unreachable = 0;     ///< estimator returned kInfDist on a
                                   ///< reachable pair
  /// Sampled pairs skipped because the ground truth itself is unreachable
  /// (or zero-distance): no finite stretch exists there, so they must not
  /// be scored — estimators without path support (Vivaldi) would
  /// otherwise contribute bogus finite "stretch" over d = ∞, and path
  /// estimators an infinite one.
  std::size_t skipped_no_ground_truth = 0;

  double average_stretch() const { return all.mean(); }
  double max_stretch() const { return all.max(); }
  /// Share of scored pairs with est < d; 0 when no pair was scored.
  double underestimate_rate() const {
    return all.count() == 0 ? 0.0
                            : static_cast<double>(underestimates) /
                                  static_cast<double>(all.count());
  }
};

struct EvalOptions {
  double epsilon = 0.0;       ///< ε-far threshold; 0 disables the split
  std::size_t max_pairs_per_source = 0;  ///< 0 = all targets per source
  std::uint64_t seed = 7;     ///< target sampling seed
};

/// Evaluates `est` on pairs (s, v) for every ground-truth source s and a
/// (possibly sampled) set of targets v != s.
StretchReport evaluate_stretch(const Graph& g, const SampledGroundTruth& gt,
                               const Estimator& est, const EvalOptions& opts);

/// Same evaluation over any registered oracle (sketches, baselines, a
/// packed store) — the scheme-agnostic path the benches and the CLI use.
StretchReport evaluate_stretch(const Graph& g, const SampledGroundTruth& gt,
                               const DistanceOracle& oracle,
                               const EvalOptions& opts);

/// Ranks targets by (dist, id) from the row source and returns, for each
/// target, whether it is ε-far from the source.
std::vector<bool> far_flags(const std::vector<Dist>& row, NodeId source,
                            double epsilon);

}  // namespace dsketch
