#include "congest/sketch_exchange.hpp"

#include "congest/protocol.hpp"
#include "congest/word_stream.hpp"
#include "util/assert.hpp"

namespace dsketch {
namespace {

// Messages: <kRequest, responder, hops>, flooded; the reply is a word
// stream (congest/word_stream), unicast along the parent pointers.
constexpr Word kRequest = 3;
static_assert(kRequest != kStreamChunk && kRequest != kStreamEnd);

constexpr std::uint32_t kNoEdge = static_cast<std::uint32_t>(-1);

class ExchangeProtocol : public Protocol {
 public:
  ExchangeProtocol(NodeId n, NodeId requester, NodeId responder,
                   const std::vector<Word>& payload)
      : requester_(requester), responder_(responder), payload_(payload) {
    parent_edge_.assign(n, kNoEdge);
    seen_.assign(n, 0);
  }

  void on_start(NodeCtx& ctx) override {
    if (ctx.node() == requester_) {
      seen_[requester_] = 1;
      ctx.broadcast(Message{kRequest, responder_, 0});
    }
  }

  void on_round(NodeCtx& ctx) override {
    const NodeId u = ctx.node();
    for (const Inbound& in : ctx.inbox()) {
      switch (in.msg.at(0)) {
        case kRequest: {
          if (seen_[u]) break;
          seen_[u] = 1;
          parent_edge_[u] = in.local_edge;  // first arrival: toward requester
          const auto hops = static_cast<std::uint32_t>(in.msg.at(2));
          if (u == responder_) {
            send_word_stream(ctx, in.local_edge, payload_);
          } else {
            ctx.broadcast(Message{kRequest, responder_, hops + 1});
          }
          break;
        }
        case kStreamChunk:
        case kStreamEnd: {
          if (u == requester_) {
            reply_.absorb(in.msg);
          } else {
            DS_CHECK(parent_edge_[u] != kNoEdge);
            ctx.send(parent_edge_[u], in.msg);
          }
          break;
        }
        default:
          DS_CHECK_MSG(false, "unknown exchange message");
      }
    }
  }

  // A self-query is complete from the start: nothing to fetch.
  bool complete() const {
    return requester_ == responder_ || reply_.complete();
  }
  /// The words u holds: v's payload once the reply is complete, else none.
  std::vector<Word> words() const {
    if (requester_ == responder_) return payload_;
    return reply_.complete() ? reply_.words() : std::vector<Word>{};
  }

 private:
  NodeId requester_;
  NodeId responder_;
  const std::vector<Word>& payload_;
  std::vector<std::uint32_t> parent_edge_;
  std::vector<char> seen_;
  WordStreamAssembler reply_;
};

}  // namespace

SketchExchangeResult exchange_sketch(const Graph& g, NodeId requester,
                                     NodeId responder,
                                     const std::vector<Word>& payload,
                                     SimConfig cfg) {
  DS_CHECK(requester < g.num_nodes() && responder < g.num_nodes());
  if (cfg.phase.empty()) cfg.phase = "sketch_exchange";
  ExchangeProtocol protocol(g.num_nodes(), requester, responder, payload);
  Simulator sim(g, protocol, cfg);
  SketchExchangeResult result;
  result.stats = sim.run();
  DS_CHECK(!result.stats.hit_round_limit);
  result.complete = protocol.complete();
  result.words = protocol.words();
  return result;
}

}  // namespace dsketch
