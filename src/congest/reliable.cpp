#include "congest/reliable.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace dsketch {

void ReliableChannel::send(NodeCtx& ctx, std::uint32_t edge,
                           const Message& payload) {
  EdgeState& e = edges_[edge];
  const std::uint64_t seq = e.send_next++;
  DS_CHECK_MSG(e.send_next <= kSeqMask, "reliable seq space exhausted");
  e.unacked.push_back(payload);
  transmit(ctx, edge, payload, seq);
  if (e.rto == 0) e.rto = cfg_.rto;
  if (e.retry_at == 0) e.retry_at = ctx.round() + e.rto;
}

void ReliableChannel::transmit(NodeCtx& ctx, std::uint32_t edge,
                               const Message& payload, std::uint64_t seq) {
  EdgeState& e = edges_[edge];
  Message wire = payload;
  wire.push(pack(kTagData, seq, e.recv_next));
  ctx.send(edge, wire);
  e.ack_owed = false;  // the frame carries our cumulative ack
}

void ReliableChannel::consume_ack(std::uint32_t edge, std::uint64_t ack) {
  EdgeState& e = edges_[edge];
  bool progressed = false;
  while (!e.unacked.empty() && e.send_base < ack) {
    e.unacked.pop_front();
    ++e.send_base;
    progressed = true;
  }
  if (progressed) {
    // Fresh evidence the link works: reset the backoff and let maintain()
    // re-arm the timer for whatever is still outstanding.
    e.rto = cfg_.rto;
    e.retry_at = 0;
  }
}

const std::vector<Inbound>& ReliableChannel::receive(
    NodeCtx& ctx, std::span<const Inbound> raw) {
  (void)ctx;
  delivered_.clear();
  for (const Inbound& in : raw) {
    const std::size_t nw = in.msg.size_words();
    DS_CHECK(nw >= 1);
    const Word header = in.msg.at(nw - 1);
    const Word tag = header >> 56;
    EdgeState& e = edges_[in.local_edge];
    consume_ack(in.local_edge, header & kSeqMask);
    if (tag == kTagAck) continue;
    DS_CHECK_MSG(tag == kTagData, "malformed reliable frame");
    const std::uint64_t seq = (header >> 28) & kSeqMask;
    e.ack_owed = true;  // even duplicates need re-acking
    if (seq < e.recv_next) {
      ++redundant_;  // stale retransmission, already delivered
      continue;
    }
    Message payload;
    for (std::size_t i = 0; i + 1 < nw; ++i) payload.push(in.msg.at(i));
    if (seq == e.recv_next) {
      ++e.recv_next;
      delivered_.push_back(Inbound{in.local_edge, payload});
      // Drain any buffered successors that are now in sequence.
      auto it = e.recv_buffer.find(e.recv_next);
      while (it != e.recv_buffer.end()) {
        delivered_.push_back(Inbound{in.local_edge, it->second});
        e.recv_buffer.erase(it);
        ++e.recv_next;
        it = e.recv_buffer.find(e.recv_next);
      }
    } else if (!e.recv_buffer.emplace(seq, payload).second) {
      ++redundant_;  // duplicate of an already-buffered future frame
    }
  }
  return delivered_;
}

void ReliableChannel::maintain(NodeCtx& ctx) {
  const std::uint64_t now = ctx.round();
  std::uint64_t next_check = 0;
  for (std::uint32_t edge = 0; edge < edges_.size(); ++edge) {
    EdgeState& e = edges_[edge];
    if (e.ack_owed) {
      // No reverse frame piggybacked the ack this round: send a pure one.
      ctx.send(edge, Message{pack(kTagAck, 0, e.recv_next)});
      e.ack_owed = false;
    }
    if (e.unacked.empty()) {
      e.retry_at = 0;
      continue;
    }
    if (e.rto == 0) e.rto = cfg_.rto;
    if (e.retry_at == 0) e.retry_at = now + e.rto;
    if (now >= e.retry_at) {
      if (ctx.outbox_depth(edge) == 0) {
        // The base frame (or its ack) was lost in flight; resend it. If
        // the outbox is still draining, the frame may simply be queued
        // behind CONGEST capacity — just push the deadline out.
        transmit(ctx, edge, e.unacked.front(), e.send_base);
        ++retransmits_;
        e.rto = std::min(e.rto * 2, kMaxRto);
      }
      e.retry_at = now + e.rto;
    }
    if (next_check == 0 || e.retry_at < next_check) next_check = e.retry_at;
  }
  if (next_check != 0) ctx.wake_at(next_check);
}

void ReliableChannel::restart(NodeCtx& ctx) {
  // A crash discarded this node's queued outboxes wholesale, so every
  // unacked frame is suspect: go-back-N retransmit the lot (the receiver
  // discards whatever did get through). The cumulative ack in the first
  // reverse frame re-trims the window.
  for (std::uint32_t edge = 0; edge < edges_.size(); ++edge) {
    EdgeState& e = edges_[edge];
    if (e.unacked.empty()) continue;
    std::uint64_t seq = e.send_base;
    for (const Message& payload : e.unacked) {
      Message wire = payload;
      wire.push(pack(kTagData, seq++, e.recv_next));
      ctx.send(edge, wire);
    }
    retransmits_ += e.unacked.size();
    e.rto = cfg_.rto;
    // Allow for outbox drain at one frame per round before retrying.
    e.retry_at = ctx.round() + e.rto + e.unacked.size();
  }
}

}  // namespace dsketch
