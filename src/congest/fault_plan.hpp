// Deterministic, seed-replayable fault injection for the CONGEST simulator.
//
// The paper's model (§2.2) assumes perfectly reliable synchronous links;
// real deployments drop, duplicate, and reorder messages, links flap, and
// nodes crash and come back. A FaultPlan is a pure function of its seed and
// config: every fault decision is either precomputed at construction (crash
// and link-down schedules) or a keyed_hash (util/rng.hpp) of stable
// identifiers, never a draw from a shared RNG stream. Per-transmission
// decisions share the simulator's one key — (seed, half-edge, that edge's
// transmission count) — with its async delays. That makes a faulty run
// exactly replayable from its seed AND byte-identical across
// SimConfig::threads: the delivery phase pulls receivers in parallel, but
// each half-edge is drained by exactly one receiver, so (edge, seq) pairs
// are stable no matter which lane does the pull.
//
// Fault model:
//   - message drop        iid per transmission with probability drop_rate;
//   - message duplication iid per transmission with probability
//                         duplicate_rate — the extra copy arrives one round
//                         after the original (so the one-message-per-edge-
//                         per-round capacity of the fault-free schedule
//                         still holds);
//   - inbox reorder       per (node, round) with probability reorder_rate,
//                         a seeded shuffle of that round's inbox (per-link
//                         FIFO is preserved in synchronous mode because a
//                         link contributes at most one message per round);
//   - link down/up        sampled undirected edges are dead for a round
//                         interval; transmissions in either direction are
//                         lost;
//   - node crash/restart  sampled nodes go down at a sampled round and come
//                         back crash_downtime rounds later. While down a
//                         node is not stepped, its queued outbound messages
//                         are discarded, and anything delivered to it is
//                         lost. Protocol state survives the crash (the
//                         fail-recover model with stable storage): recovery
//                         of the *messages* lost in flight is the
//                         protocol's job — see congest/reliable.hpp.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace dsketch {

struct FaultConfig {
  double drop_rate = 0.0;       ///< iid loss probability per transmission
  double duplicate_rate = 0.0;  ///< iid duplication probability
  double reorder_rate = 0.0;    ///< per (node, round) inbox shuffle chance

  std::uint32_t link_faults = 0;         ///< undirected edges to take down
  std::uint64_t link_down_rounds = 64;   ///< length of each down interval
  std::uint64_t link_fault_horizon = 2048;  ///< down intervals start in [1, horizon)

  std::uint32_t node_crashes = 0;     ///< nodes that crash (once each)
  std::uint64_t crash_downtime = 64;  ///< rounds a crashed node stays down
  std::uint64_t crash_horizon = 2048;  ///< crashes happen in [1, horizon)

  std::uint64_t seed = 0x0fa1cedULL;

  bool any() const {
    return drop_rate > 0 || duplicate_rate > 0 || reorder_rate > 0 ||
           link_faults > 0 || node_crashes > 0;
  }
};

/// One crash/restart event pair (restart = at + downtime).
struct CrashEvent {
  NodeId node;
  std::uint64_t at;
  std::uint64_t restart;
};

/// See the file comment for the model. Construction samples the crash and
/// link-down schedules; per-message decisions are stateless hashes.
class FaultPlan {
 public:
  FaultPlan(const Graph& g, FaultConfig cfg);

  const FaultConfig& config() const { return cfg_; }

  /// The sampled crash schedule, sorted by crash round.
  const std::vector<CrashEvent>& crashes() const { return crashes_; }

  /// Whether the seq-th transmission on half-edge h is lost in flight
  /// (iid drop or a down link interval covering `round`).
  bool drop_transmission(std::size_t half_edge, std::uint64_t seq,
                         std::uint64_t round) const {
    if (cfg_.drop_rate > 0 &&
        keyed_uniform(cfg_.seed, kDropSalt, half_edge, seq) <
            cfg_.drop_rate) {
      return true;
    }
    return link_down(half_edge, round);
  }

  /// Whether the seq-th transmission on half-edge h is duplicated (the
  /// copy arrives one round after the original).
  bool duplicate_transmission(std::size_t half_edge, std::uint64_t seq) const {
    return cfg_.duplicate_rate > 0 &&
           keyed_uniform(cfg_.seed, kDupSalt, half_edge, seq) <
               cfg_.duplicate_rate;
  }

  /// Whether node u's inbox is shuffled this round (and with what seed).
  bool reorder_inbox(NodeId u, std::uint64_t round) const {
    return cfg_.reorder_rate > 0 &&
           keyed_uniform(cfg_.seed, kReorderSalt, u, round) <
               cfg_.reorder_rate;
  }
  std::uint64_t reorder_seed(NodeId u, std::uint64_t round) const {
    return keyed_hash(cfg_.seed, kReorderSalt ^ cfg_.seed, u, round);
  }

  /// Whether the undirected link carrying half-edge h is down at `round`.
  bool link_down(std::size_t half_edge, std::uint64_t round) const {
    if (link_down_.empty()) return false;
    const auto it = link_down_.find(half_edge);
    if (it == link_down_.end()) return false;
    return round >= it->second.from && round < it->second.until;
  }

 private:
  static constexpr std::uint64_t kDropSalt = 0xd509;
  static constexpr std::uint64_t kDupSalt = 0xd0b1e;
  static constexpr std::uint64_t kReorderSalt = 0x5087;

  struct DownInterval {
    std::uint64_t from;
    std::uint64_t until;
  };

  FaultConfig cfg_;
  std::vector<CrashEvent> crashes_;
  // Down interval per affected half-edge (both directions of a sampled
  // undirected link map to the same interval).
  std::unordered_map<std::size_t, DownInterval> link_down_;
};

}  // namespace dsketch
