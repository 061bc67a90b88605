// Distributed Thorup–Zwick sketch construction (§3.2, Algorithm 2).
//
// Phases run top-down i = k-1 … 0. In phase i the sources are A_i \ A_{i+1};
// every node u runs a gated multi-source Bellman–Ford:
//   - an incoming <source v, dist a> on an edge of weight w is accepted iff
//     key(a + w, v) < (d(u, A_{i+1}), p_{i+1}(u))   [the phase gate]
//     and it improves the current estimate d'(v);
//   - accepted sources go into a pending queue; each round the node
//     broadcasts the head of the queue to all neighbors (the paper's
//     round-robin multiplexing — FIFO gives the same one-slot-per-pending-
//     source fairness bound).
// At the end of phase i the surviving estimates are exactly the bunch slice
// B_i(u) with exact distances (gate monotonicity — see tz_centralized.cpp),
// and p_i(u) = min-key of {(0,u) if u in A_i} ∪ B_i(u) ∪ {p_{i+1}(u)}.
// A node keeps no per-target forwarding state: the next hop toward any
// bunch member is a function of the labels and the node's own edges
// (sketch/path_extraction).
//
// Over a one-level hierarchy (k = 1) nothing gates a source, so the run is
// the k-source shortest paths of Algorithm 1 ([PK09]): every node's bunch
// holds its exact distance to every A_0 node it reaches. The ε-slack
// sketches run it from their density net; it is the repo's one in-network
// multi-source Bellman–Ford. At the end every node's label is packed
// straight from its own pivots and bunch, after the simulator is gone.
//
// Phase synchronization comes in two flavours:
//   kOracle — a global observer detects quiescence and starts the next phase
//             (models the paper's "every node knows S" variant without
//             burning the padding rounds; the analytic known-S round budget
//             is reported separately by the benches);
//   kEcho   — the paper's §3.3 distributed termination detection: a BFS tree
//             is built first (leader election), every data message is ECHOed,
//             sources detect when their cascade dies, COMPLETE convergecasts
//             up the tree and the root STARTs the next phase. Fully
//             distributed; costs the paper's predicted constant-factor
//             overhead, measured in experiment E3.
#pragma once

#include <cstdint>
#include <vector>

#include "congest/accounting.hpp"
#include "congest/sim.hpp"
#include "graph/graph.hpp"
#include "sketch/hierarchy.hpp"
#include "sketch/tz_label.hpp"

namespace dsketch {

/// Phase-synchronization strategy.
///  kOracle — a global observer starts the next phase at quiescence
///            (measures true convergence time);
///  kEcho   — §3.3 distributed termination detection (implementable);
///  kKnownS — the paper's baseline assumption: every node knows the
///            shortest-path diameter S and advances phases at the fixed
///            analytic deadlines Θ(n^{1/k}·S·ln n). Pays the full padded
///            round bound, needs zero control messages.
enum class TerminationMode { kOracle, kEcho, kKnownS };

/// Fault-tolerant construction switch. When enabled, every protocol message
/// rides the reliable link layer (congest/reliable.hpp): one extra header
/// word per frame buys exactly-once in-order delivery under a FaultPlan's
/// drops/duplicates/reorders/crashes via timeout retransmission and
/// post-restart go-back-N, so the build converges to the same labels as a
/// fault-free run. Requires max_message_words >= 5 (raised automatically).
/// Supported with kOracle and kEcho termination; kKnownS deadlines assume
/// loss-free links and are not fault-padded.
struct TzFaultTolerance {
  bool enabled = false;
  std::uint64_t rto = 16;        ///< initial retransmit timeout (rounds)
};

struct TzDistributedResult {
  LabelArena labels;  ///< labels.view(u) is node u's sketch; empty on failure
  SimStats stats;                ///< main construction run
  SimStats tree_stats;           ///< leader election + BFS tree (kEcho only)
  std::vector<std::uint64_t> phase_end_rounds;  ///< round at each phase end
  bool completed = true;         ///< false: faulty run hit the round limit
  std::uint64_t retransmits = 0;          ///< reliable-layer resends
  std::uint64_t duplicate_discards = 0;   ///< redundant frames dropped

  std::uint64_t total_rounds() const { return stats.rounds + tree_stats.rounds; }
  std::uint64_t total_messages() const {
    return stats.messages + tree_stats.messages;
  }
};

/// Runs the distributed construction on `g` for the given hierarchy.
/// The hierarchy may be net-restricted (CDG sketches, §4): nodes with
/// level 0 never source announcements but still relay and collect bunches.
///
/// `eager_send` replaces the paper's one-broadcast-per-round round-robin
/// with sending every pending source each round. Under the CONGEST edge
/// capacity the congestion just moves from the node queue to the edge
/// queues (same rounds); with capacity disabled it collapses to ~S rounds
/// per phase — the E3 ablation showing the bound is made of bandwidth.
/// `known_S`: the shortest-path diameter handed to every node in kKnownS
/// mode (0 = compute it exactly first, as centralized preprocessing).
/// `fault_tolerance`: see TzFaultTolerance. A SimConfig with a FaultPlan
/// attached and fault tolerance disabled is allowed but will generally not
/// converge; such runs return completed = false (with empty labels) once
/// max_rounds is exhausted instead of asserting. The kEcho BFS-tree
/// pre-pass always runs fault-free: leader election under faults is out of
/// scope, and the tree is static data the main run then uses.
TzDistributedResult build_tz_distributed(const Graph& g,
                                         const Hierarchy& hierarchy,
                                         TerminationMode mode,
                                         SimConfig cfg = {},
                                         bool eager_send = false,
                                         std::uint32_t known_S = 0,
                                         TzFaultTolerance fault_tolerance = {});

}  // namespace dsketch
