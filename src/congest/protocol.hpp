// Protocol and per-node execution context interfaces for the simulator.
//
// A Protocol owns all per-node state (indexed by NodeId) and is invoked by
// the simulator through three hooks:
//   on_start(ctx)    — once per node at round 0 (or after activate_all);
//   on_round(ctx)    — every round the node is active (received messages,
//                      requested a wake, or was just activated);
//   on_quiescent(sim)— when no message is in flight, no outbox is nonempty
//                      and no node requested a wake. Returning true resumes
//                      the run (the hook typically re-activates nodes to
//                      start the next phase); false ends it.
//
// on_quiescent models *oracle* termination detection — a global observer
// noticing silence. The paper's §3.3 distributed termination detection is
// implemented as protocol logic (echo_termination.hpp) and benchmarked
// against the oracle in experiment E3.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "congest/message.hpp"
#include "graph/graph.hpp"

namespace dsketch {

class Simulator;

/// Node-scoped view handed to protocol hooks. All calls touch only state
/// owned by this node, so hooks may run concurrently for different nodes.
/// Only the simulator constructs one: it carries the worker lane stepping
/// the node, on whose free list the node's sends take message chunks.
class NodeCtx {
 public:
  NodeId node() const { return node_; }
  std::uint64_t round() const;
  std::uint32_t degree() const;
  NodeId neighbor(std::uint32_t local_edge) const;
  Weight edge_weight(std::uint32_t local_edge) const;

  /// Messages that arrived this round. First the ones transmitted last
  /// round, in local-edge order (FIFO per edge); then the ones that waited
  /// in the simulator's wheel (async delays, fault duplicates), in its
  /// deterministic fold order. An asynchronous link is non-FIFO.
  std::span<const Inbound> inbox() const;

  /// Enqueues `m` on the outbox of `local_edge`; the simulator transmits one
  /// queued message per edge per direction per round.
  void send(std::uint32_t local_edge, const Message& m);

  /// Sends a copy of `m` on every incident edge, in local-edge order (the
  /// same queues as one send per edge, in one pass).
  void broadcast(const Message& m);

  /// Request on_round next round even without inbound messages.
  void wake();

  /// Request on_round at an absolute future round (a local timer — used by
  /// the known-S variant where nodes advance phases at fixed deadlines).
  /// Idle rounds in between are fast-forwarded by the simulator but still
  /// counted.
  void wake_at(std::uint64_t round);

  /// Number of messages queued but not yet transmitted on `local_edge`.
  std::size_t outbox_depth(std::uint32_t local_edge) const;

 private:
  friend class Simulator;
  NodeCtx(Simulator& sim, NodeId node, std::size_t lane)
      : sim_(sim), node_(node), lane_(lane) {}

  Simulator& sim_;
  NodeId node_;
  std::size_t lane_;
};

class Protocol {
 public:
  virtual ~Protocol() = default;
  virtual void on_start(NodeCtx& ctx) = 0;
  virtual void on_round(NodeCtx& ctx) = 0;
  virtual bool on_quiescent(Simulator& sim) {
    (void)sim;
    return false;
  }

  // Fault-injection hooks (congest/fault_plan.hpp). A crashed node is not
  // stepped and loses all in-flight messages, but its protocol state
  // survives (fail-recover with stable storage); on_restart runs at its
  // first step back up. The default resumes as a normal round.
  virtual void on_crash(NodeId node) { (void)node; }
  virtual void on_restart(NodeCtx& ctx) { on_round(ctx); }
};

}  // namespace dsketch
