// Reliable link layer for CONGEST protocols under fault injection.
//
// FaultPlan (fault_plan.hpp) can drop, duplicate, and reorder messages and
// crash nodes. Rather than weaving loss tolerance through every protocol's
// logic, a ReliableChannel restores the fault-free link abstraction
// underneath an unmodified protocol: exactly-once, in-order delivery per
// (directed) edge, repaired by timeout-based retransmission.
//
// Mechanism (one extra header word per frame — the classic seq/ack scheme
// squeezed into the CONGEST word budget):
//   - every payload gets a per-edge sequence number; the sender keeps
//     unacknowledged payloads buffered ("stable storage": the buffer
//     survives node crashes, matching the fail-recover model);
//   - every frame — data or pure ACK — carries the receiver's cumulative
//     ack (the next sequence it has not yet delivered), so acks piggyback
//     on reverse traffic and cost a dedicated message only on silent edges;
//   - the receiver delivers in order, buffering out-of-sequence frames and
//     discarding duplicates/stale retransmissions;
//   - on timeout (exponential backoff, rto ... kMaxRto) the sender
//     retransmits the base (oldest unacked) frame; the cumulative ack then
//     re-synchronizes the window. Timeouts use NodeCtx::wake_at, so an idle
//     network fast-forwards straight to the retry round.
//
// A node crash loses its queued outboxes and undelivered inbox; because the
// unacked buffer is part of protocol state, the first maintain() after
// restart retransmits and the link heals. Everything here is node-owned
// state touched only from that node's protocol hooks, so it is safe under
// the simulator's parallel stepping, and it consumes no randomness — runs
// stay byte-identical across thread counts and replayable from the fault
// seed.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <vector>

#include "congest/message.hpp"
#include "congest/protocol.hpp"

namespace dsketch {

/// Exponential backoff ceiling for the retransmit timeout, in rounds.
inline constexpr std::uint64_t kMaxRto = 1024;

struct ReliableConfig {
  std::uint64_t rto = 16;       ///< initial retransmit timeout, in rounds
};

/// Per-node reliable transport over all incident edges. Usage, inside the
/// owning protocol's hooks (all methods touch only this node's state):
///   on_round:  auto& delivered = ch.receive(ctx, ctx.inbox());
///              ... dispatch delivered ...; ... sends via ch.send(...) ...;
///              ch.maintain(ctx);   // acks, retransmits, timer re-arm
class ReliableChannel {
 public:
  ReliableChannel() = default;
  ReliableChannel(std::uint32_t degree, ReliableConfig cfg)
      : cfg_(cfg), edges_(degree) {}

  /// Queues `payload` for exactly-once in-order delivery on `edge`.
  /// Appends the header word: payload must leave one word of the
  /// simulator's max_message_words budget free.
  void send(NodeCtx& ctx, std::uint32_t edge, const Message& payload);

  /// Processes a round's raw inbox: consumes acks, discards duplicates,
  /// reorders to sequence. Returns the in-order payload deliveries (the
  /// reference stays valid until the next receive call on this channel).
  const std::vector<Inbound>& receive(NodeCtx& ctx,
                                      std::span<const Inbound> raw);

  /// Flushes owed acks, retransmits timed-out base frames, and re-arms the
  /// retry timer. Call at the end of every hook that ran receive/send.
  void maintain(NodeCtx& ctx);

  /// Post-crash recovery: the simulator discarded this node's queued
  /// outboxes, so go-back-N retransmit every unacked frame. Call from
  /// Protocol::on_restart before resuming normal rounds.
  void restart(NodeCtx& ctx);

  std::uint64_t retransmits() const { return retransmits_; }
  std::uint64_t redundant_discards() const { return redundant_; }

 private:
  // Header word layout: | tag : 8 | seq : 28 | ack : 28 |.
  static constexpr Word kSeqMask = (Word{1} << 28) - 1;
  static constexpr Word kTagData = 1;  // payload frame
  static constexpr Word kTagAck = 2;   // header-only cumulative ack
  static Word pack(Word tag, std::uint64_t seq, std::uint64_t ack) {
    return (tag << 56) | ((seq & kSeqMask) << 28) | (ack & kSeqMask);
  }

  struct EdgeState {
    std::deque<Message> unacked;   // payloads; front has sequence send_base
    std::uint64_t send_base = 0;
    std::uint64_t send_next = 0;
    std::uint64_t recv_next = 0;   // next sequence to deliver = cumulative ack
    std::map<std::uint64_t, Message> recv_buffer;  // out-of-order frames
    std::uint64_t rto = 0;         // current backoff (0 = cfg default)
    std::uint64_t retry_at = 0;    // next retransmit round (0 = unarmed)
    bool ack_owed = false;         // data received, ack not yet piggybacked
  };

  void transmit(NodeCtx& ctx, std::uint32_t edge, const Message& payload,
                std::uint64_t seq);
  void consume_ack(std::uint32_t edge, std::uint64_t ack);

  ReliableConfig cfg_;
  std::vector<EdgeState> edges_;
  std::vector<Inbound> delivered_;   // reused scratch returned by receive
  std::uint64_t retransmits_ = 0;
  std::uint64_t redundant_ = 0;
};

}  // namespace dsketch
