// §3.3 termination-detection building blocks.
//
// The paper removes the "every node knows S" assumption with two mechanisms:
//
//  1. Per-message ECHO tracking: every data message m a node receives is
//     eventually ECHOed back to its sender — immediately if m caused no new
//     broadcast (gate failed / no improvement / superseded before sending),
//     or once the broadcast it triggered has itself been ECHOed by all
//     neighbors. A source's own announcement therefore completes exactly
//     when its whole (finite) causal cascade has died out.
//
//  2. COMPLETE convergecast on a BFS tree: a node reports COMPLETE to its
//     parent once it is itself complete (non-sources trivially; sources when
//     their announcement has fully echoed) and all its children reported.
//     The root then knows the phase is globally over and broadcasts START
//     for the next phase.
//
// EchoTracker implements (1) for one node and one phase; CompletionTracker
// implements (2) for one node and one phase. Both are pure bookkeeping
// (no I/O) so they are unit-testable in isolation; the TZ protocol wires
// their outputs to actual sends.
//
// Deviation from the paper: we wait for echoes from *all* neighbors of a
// broadcast (the paper excludes the trigger's sender, which echoes
// immediately anyway); this costs at most one extra round per record and
// simplifies matching.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>

#include "graph/graph.hpp"
#include "util/flat_map.hpp"

namespace dsketch {

/// Identifies the message a node must eventually ECHO: the edge it came in
/// on and the value it carried (the "copy of the message" of §3.3).
struct EchoObligation {
  std::uint32_t edge;
  Dist value;
};

class EchoTracker {
 public:
  /// A received data message (source, value) on `edge` was accepted as the
  /// new best for `source` and queued. Returns the obligation of a
  /// previously queued-but-unsent trigger that is now superseded and must be
  /// echoed immediately, if any.
  std::optional<EchoObligation> accept_trigger(NodeId source,
                                               std::uint32_t edge,
                                               Dist value);

  /// The node broadcast (source, sent_value) to `fanout` neighbors; consumes
  /// the pending trigger for `source` (if any — a source's own announcement
  /// has none). A node's sent values for one source strictly decrease, so
  /// (source, sent_value) never repeats an outstanding record.
  void commit_send(NodeId source, Dist sent_value, std::uint32_t fanout,
                   bool self_announce);

  /// An ECHO for (source, value) arrived. When this completes a record,
  /// returns either the trigger obligation to forward the echo upstream, or
  /// marks self-announce completion (check `self_announce_complete`).
  std::optional<EchoObligation> on_echo(NodeId source, Dist value);

  bool self_announce_complete() const { return self_done_; }
  bool has_outstanding() const {
    return !records_.empty() || !trigger_.empty();
  }
  std::size_t outstanding_records() const { return records_.size(); }

  /// Back to the fresh state for the next phase; the tables keep their
  /// capacity.
  void clear() {
    records_.clear();
    trigger_.clear();
    self_done_ = false;
  }

 private:
  struct Record {
    std::uint32_t remaining;
    bool self_announce;       // else `trigger` is owed an echo
    EchoObligation trigger;
  };
  // Outstanding records keyed by (source, sent value).
  FlatMap<std::pair<NodeId, Dist>, Record> records_;
  FlatMap<NodeId, EchoObligation> trigger_;
  bool self_done_ = false;
};

/// COMPLETE convergecast state for one node and one phase.
class CompletionTracker {
 public:
  void reset(std::uint32_t num_children, bool self_complete) {
    expected_children_ = num_children;
    got_children_ = 0;
    self_complete_ = self_complete;
    fired_ = false;
  }

  /// Child reported COMPLETE. Returns true if this node should now emit its
  /// own COMPLETE (or, at the root, declare the phase finished).
  bool on_child_complete() {
    ++got_children_;
    return ready();
  }
  /// This node became complete (source finished echoing, or non-source at
  /// phase start). Returns true as above.
  bool on_self_complete() {
    self_complete_ = true;
    return ready();
  }

  bool fired() const { return fired_; }
  void mark_fired() { fired_ = true; }

 private:
  bool ready() const {
    return !fired_ && self_complete_ && got_children_ >= expected_children_;
  }
  std::uint32_t expected_children_ = 0;
  std::uint32_t got_children_ = 0;
  bool self_complete_ = false;
  bool fired_ = false;
};

}  // namespace dsketch
