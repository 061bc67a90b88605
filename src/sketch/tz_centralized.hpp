// Centralized Thorup–Zwick construction (§3.1) — the paper's baseline and
// our correctness oracle for the distributed algorithm.
//
// Given a Hierarchy, computes for every node the exact label, in four
// phases on a thread pool (each one trace span):
//   - tz_level_gates: the pivots p_i(u) with d(u, A_i), one multi-source
//     Dijkstra per level; they are also the gates growth checks against.
//   - tz_cluster_growth: one pruned Dijkstra per phase source w in
//     A_i \ A_{i+1}, gated at relaxation as TZ05's modified Dijkstra is: x
//     is queued only while key(d(x,w), w) beats x's level-(i+1) gate, so
//     the search settles exactly the cluster C(w) = {x : w in B(x)} the
//     paper's §3.2 works from (the source is gated too). Its arg is the
//     number of bunch entries kept.
//   - tz_bunch_transpose: the clusters become one flat, id-sorted bunch
//     array in node order — per-node counts over runs of contiguous
//     sources, one prefix sum, and a scatter through per-run cursors.
//   - tz_label_pack: every record packed once into its place in the
//     arena's slab (LabelArena::pack).
// Sources run in id order within and across runs, so the output is
// byte-identical whatever the pool's lane count (tested). Pass a 1-thread
// pool to force a serial build.
// Complexity is the centralized O(k m n^{1/k}) expectation of [TZ05]; we use
// it both to validate the distributed output (labels must match exactly for
// the same hierarchy) and as the "offline computation" baseline in benches.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "sketch/hierarchy.hpp"
#include "sketch/tz_label.hpp"
#include "util/thread_pool.hpp"

namespace dsketch {

/// All labels for one hierarchy, finalized into one contiguous arena;
/// arena.view(u) is the sketch stored at node u. `pool == nullptr` uses
/// the global pool.
LabelArena build_tz_centralized(const Graph& g, const Hierarchy& hierarchy,
                                ThreadPool* pool = nullptr);

/// Gates (d(u, A_i), p_i(u)) for every node and level; exposed for tests.
struct LevelGates {
  /// gate[i][u] = key of the nearest A_i node to u (kInfDist key if empty).
  std::vector<std::vector<DistKey>> gate;
};
LevelGates compute_level_gates(const Graph& g, const Hierarchy& hierarchy,
                               ThreadPool* pool = nullptr);

}  // namespace dsketch
