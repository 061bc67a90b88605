// Event-driven CONGEST-model simulator.
//
// Faithful to §2.2 of the paper:
//   - rounds are synchronous; messages sent in round r arrive in round r+1;
//   - each edge carries at most one message per direction per round
//     (enforced by per-half-edge FIFO outboxes drained at rate 1/round);
//   - messages are word-counted and capped at `max_message_words`.
//
// Scheduling is event-driven over an *activation set*: a node is stepped
// only in rounds where it received a message, was just activated, or
// requested a wake; edges are touched only while their outbox is nonempty;
// idle stretches (timer-only waits) fast-forward the round counter without
// executing anything. Cost per simulated round is proportional to actual
// traffic (plus one bitset word per 4,096 nodes), never to |E|.
//
// Each round runs three phases:
//   1. step    — every active node runs its protocol hook. Hooks touch only
//                node-owned state (inbox, outboxes of outgoing half-edges,
//                per-node wake scratch), so the step fans out over
//                ThreadPool::for_each_dynamic when cfg.threads != 1.
//   2. splice  — each half-edge that became busy is marked at its
//                receiver-side slot, where the mark stays until its queue
//                drains, and its receiver joins the ready set; node-owned
//                wake-at requests are folded into the round-keyed wheel.
//                Serial, O(new work).
//   3. deliver — one message per busy half-edge ships (the CONGEST capacity;
//                all of them under the E3 ablation) by a receiver pull:
//                each ready receiver drains its marked slots in local-edge
//                order, so delivery parallelizes over receivers. Every
//                per-transmission decision (async delay, fault drop and
//                duplicate) is a stateless hash of (seed, half-edge, that
//                edge's transmission count), taken inside the pull, so it
//                needs no serial order. A transmission due next round goes
//                straight to the inbox; one that lands later (an async
//                delay, a fault duplicate) waits in the one round-keyed
//                wheel, which also holds wake_at timers, and the serial
//                reduction folds it there in receiver order.
// A node is stepped in a round if and only if it was activated, asked for a
// wake or a timer, or something reached its inbox.
// The wall time of each phase is summed into SimStats (step/splice/
// deliver_seconds) and reported per round to the round log.
//
// Outboxes live in one MessageStore (congest/message_store.hpp): a queue
// holds chunks of a few messages only while it has messages queued, so
// memory follows the messages in flight. The step takes chunks on the
// lane it runs on, the pull gives them back on its own, and the serial
// fold rebalances the lanes' free lists.
//
// Determinism contract: for a fixed graph, protocol, and SimConfig (minus
// `threads`), execution is byte-identical across thread counts and reruns —
// message order, round counts, stats, and round-log samples all match.
// Upheld by: activation and ready sets read out in id order, local-edge
// pull order, keyed per-transmission decisions, and a receiver-ordered
// fold of stats and wheel entries. Which lane holds which chunk varies
// from run to run and is never observable.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/round_log.hpp"
#include "util/id_set.hpp"

#include "congest/accounting.hpp"
#include "congest/message.hpp"
#include "congest/message_store.hpp"
#include "congest/protocol.hpp"
#include "graph/graph.hpp"

namespace dsketch {

class FaultPlan;
class ThreadPool;

struct SimConfig {
  std::size_t max_message_words = 4;  ///< CONGEST O(log n)-bit budget
  unsigned threads = 1;               ///< worker lanes for node stepping and
                                      ///< delivery: 1 = serial, 0 = the
                                      ///< process-wide pool (hardware
                                      ///< concurrency), N = a private pool
                                      ///< of N lanes. Results are identical
                                      ///< for every value.
  std::uint64_t max_rounds = 200'000'000;
  bool enforce_capacity = true;       ///< ablation switch (E3): when false,
                                      ///< all queued messages ship each round

  /// Asynchrony extension (the paper's §5 future work): each transmitted
  /// message takes a delay in [1, async_max_delay] rounds instead of
  /// exactly 1, uniform over a keyed hash of (async_seed, half-edge, that
  /// edge's transmission count). Links may reorder (non-FIFO). The
  /// schedule is a function of the seed and the protocol alone, the same
  /// on any number of lanes. 1 = synchronous CONGEST.
  std::uint32_t async_max_delay = 1;
  std::uint64_t async_seed = 0x5eedULL;  ///< keys the async delays

  /// Observability: labels this run in SimStats (phase breakdowns,
  /// round-limit warnings) and in per-round telemetry. Builders set a
  /// default when the caller left it empty.
  std::string phase;
  /// When non-null, the simulator reports one RoundSample per executed
  /// round (fast-forwarded idle rounds emit nothing). Not owned; must
  /// outlive run().
  obs::RoundLog* round_log = nullptr;

  /// When non-null, fault injection is active: transmissions may be
  /// dropped or duplicated, inboxes reordered, links taken down, and
  /// nodes crashed/restarted per the plan's seeded schedule (see
  /// congest/fault_plan.hpp). Not owned; must outlive run(). The
  /// determinism contract still holds: for a fixed plan, execution is
  /// byte-identical across `threads` values and reruns.
  const FaultPlan* faults = nullptr;
};

class Simulator {
 public:
  Simulator(const Graph& graph, Protocol& protocol, SimConfig cfg = {});
  ~Simulator();

  /// Runs until quiescence (and until on_quiescent returns false) or until
  /// max_rounds. Returns cumulative stats.
  SimStats run();

  /// Re-activates every node; typically called from on_quiescent to start a
  /// new phase. on_start is invoked again for each node.
  void activate_all();

  /// Activates a subset of nodes (on_start is invoked for them).
  void activate(const std::vector<NodeId>& nodes);

  const Graph& graph() const { return graph_; }
  std::uint64_t round() const { return round_; }
  const SimStats& stats() const { return stats_; }
  /// The store every outbox keeps its messages in.
  const MessageStore& message_store() const { return store_; }

  // -- NodeCtx backing API (treat as private to NodeCtx) --
  std::uint32_t degree_of(NodeId u) const {
    return static_cast<std::uint32_t>(graph_.degree(u));
  }
  NodeId neighbor_of(NodeId u, std::uint32_t local) const {
    return graph_.neighbors(u)[local].to;
  }
  Weight weight_of(NodeId u, std::uint32_t local) const {
    return graph_.neighbors(u)[local].weight;
  }
  std::span<const Inbound> inbox_of(NodeId u) const {
    return {inbox_[u].data(), inbox_[u].size()};
  }
  /// `lane` is the lane stepping u: the sends take chunks on its list.
  void enqueue(NodeId u, std::uint32_t local, const Message& m,
               std::size_t lane);
  void enqueue_all(NodeId u, const Message& m, std::size_t lane);
  void wake(NodeId u) { wake_flag_[u] = 1; }
  /// Node-owned: requests are banked per node during the (possibly
  /// parallel) step and folded into the shared timer wheel at splice time.
  void schedule_wake(NodeId u, std::uint64_t at_round) {
    if (at_round <= round_) {
      wake_flag_[u] = 1;
    } else {
      wake_at_scratch_[u].push_back(at_round);
    }
  }
  std::size_t outbox_depth(NodeId u, std::uint32_t local) const {
    return outbox_[graph_.half_edge_index(u, local)].size();
  }

 private:
  // A delivery due in a later round (an async delay or a fault duplicate),
  // or a wake_at timer (to_local == kTimer): one entry of the wheel.
  struct Landing {
    NodeId to;
    std::uint32_t to_local;
    Message msg;
  };
  static constexpr std::uint32_t kTimer = static_cast<std::uint32_t>(-1);

  ThreadPool* pool();
  /// Runs body(lane, i) for i in [0, count), on the pool's lanes or
  /// inline on lane 0.
  void fan_out(std::size_t count,
               const std::function<void(std::size_t, std::size_t)>& body);
  void land_due();
  void step_active_nodes();
  void splice_new_work();
  void deliver();
  std::uint64_t transit(std::size_t half_edge, std::uint64_t seq) const;
  void apply_fault_events();
  void crash_node(NodeId u);

  const Graph& graph_;
  Protocol& protocol_;
  SimConfig cfg_;

  std::uint64_t round_ = 0;
  SimStats stats_;

  // Per half-edge h = (u, local): its queue of messages in store_, its
  // receiver node, and its twin — the receiver-side half-edge
  // (Graph::twin). The twin relation is symmetric.
  MessageStore store_;
  std::vector<MessageStore::Queue> outbox_;
  std::vector<NodeId> head_;
  std::vector<std::size_t> twin_;

  std::vector<std::vector<Inbound>> inbox_;   // per node, current round
  // Deliveries and timers keyed by the round they land in.
  std::map<std::uint64_t, std::vector<Landing>> wheel_;
  std::vector<char> wake_flag_;               // set via NodeCtx::wake
  // Node-owned scratch filled during the parallel step, folded serially.
  std::vector<std::vector<std::uint64_t>> wake_at_scratch_;
  std::vector<std::vector<std::uint32_t>> dirty_local_;  // newly busy sends
  std::vector<char> start_pending_;           // on_start owed to node
  IdSet next_active_;                         // nodes to step next round
  std::vector<NodeId> active_;                // this round's, in id order

  // Per receiver-side half-edge (v, l): its twin's queue is nonempty. Set
  // by the splice when the queue becomes busy; cleared by v's pull when
  // it drains, or when the sender crashes.
  std::vector<char> inbound_busy_;
  std::size_t busy_slots_ = 0;                // marked slots = busy queues
  // Receivers with a marked slot (a superset after a crash empties
  // queues), and this round's, in id order.
  IdSet next_ready_;
  std::vector<NodeId> ready_;
  // One ready receiver's pull: its share of the round's counters, the
  // (landing round, entry) pairs the reduction folds into the wheel, the
  // queues it drained and whether any stays busy. The reduction empties
  // it; buffers are kept across rounds.
  struct ReceiverDelta {
    SimCounters counts;
    std::vector<std::pair<std::uint64_t, Landing>> later;
    std::size_t drained = 0;
    bool still_busy = false;
  };
  std::vector<ReceiverDelta> deltas_;

  // Transmissions so far per half-edge: the count in every
  // per-transmission key. Allocated only when a run makes such decisions
  // (async delays or a fault plan); advanced inside the pull, which is
  // safe because each half-edge is drained by exactly one lane.
  std::vector<std::uint64_t> send_seq_;

  // Fault-injection state (only allocated when cfg.faults != nullptr),
  // mutated in serial phases only.
  const FaultPlan* faults_ = nullptr;
  std::vector<char> down_;                    // node currently crashed
  std::vector<char> restart_pending_;         // on_restart owed to node
  std::vector<std::uint64_t> restart_round_;  // valid while down_[u]
  struct FaultEvent {
    std::uint64_t round;
    NodeId node;
    bool restart;
    std::uint64_t restart_at = 0;  // for crash events: the paired restart
  };
  std::vector<FaultEvent> fault_events_;      // sorted by round
  std::size_t next_fault_event_ = 0;

  std::unique_ptr<ThreadPool> own_pool_;      // cfg.threads not in {0, 1}
};

}  // namespace dsketch
