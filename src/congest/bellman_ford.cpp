#include "congest/bellman_ford.hpp"

#include "congest/protocol.hpp"
#include "util/assert.hpp"

namespace dsketch {
namespace {

// SuperSource messages:
//   DATA:  <0, dist, owner>
//   CLAIM: <1>   (sent on the parent edge after the field stabilizes)
class SuperSourceBfProtocol : public Protocol {
 public:
  SuperSourceBfProtocol(NodeId n, const std::vector<NodeId>& sources)
      : dist_(n, kInfDist),
        owner_(n, kInvalidNode),
        parent_edge_(n, SuperSourceBfResult::kNoParent),
        child_edges_(n),
        is_source_(n, 0) {
    for (const NodeId s : sources) {
      DS_CHECK(s < n);
      is_source_[s] = 1;
    }
  }

  void on_start(NodeCtx& ctx) override {
    const NodeId u = ctx.node();
    if (phase_ == Phase::kSpread) {
      if (is_source_[u]) {
        dist_[u] = 0;
        owner_[u] = u;
        ctx.broadcast(Message{0, 0, u});
      }
    } else if (phase_ == Phase::kClaim) {
      if (parent_edge_[u] != SuperSourceBfResult::kNoParent) {
        ctx.send(parent_edge_[u], Message{1});
      }
    }
  }

  void on_round(NodeCtx& ctx) override {
    const NodeId u = ctx.node();
    bool improved = false;
    for (const Inbound& in : ctx.inbox()) {
      if (in.msg.at(0) == 1) {  // CLAIM
        child_edges_[u].push_back(in.local_edge);
        continue;
      }
      const Dist cand = in.msg.at(1) + ctx.edge_weight(in.local_edge);
      const NodeId owner = static_cast<NodeId>(in.msg.at(2));
      if (cand < dist_[u] || (cand == dist_[u] && owner < owner_[u])) {
        dist_[u] = cand;
        owner_[u] = owner;
        parent_edge_[u] = in.local_edge;
        improved = true;
      }
    }
    if (improved) {
      ctx.broadcast(Message{0, static_cast<Word>(dist_[u]), owner_[u]});
    }
  }

  bool on_quiescent(Simulator& sim) override {
    if (phase_ == Phase::kSpread) {
      phase_ = Phase::kClaim;
      sim.activate_all();
      return true;
    }
    return false;
  }

  SuperSourceBfResult take_result(SimStats stats) {
    SuperSourceBfResult r;
    r.dist = std::move(dist_);
    r.owner = std::move(owner_);
    r.parent_edge = std::move(parent_edge_);
    r.child_edges = std::move(child_edges_);
    r.stats = stats;
    return r;
  }

 private:
  enum class Phase { kSpread, kClaim };
  Phase phase_ = Phase::kSpread;
  std::vector<Dist> dist_;
  std::vector<NodeId> owner_;
  std::vector<std::uint32_t> parent_edge_;
  std::vector<std::vector<std::uint32_t>> child_edges_;
  std::vector<char> is_source_;
};

}  // namespace

SuperSourceBfResult run_super_source_bf(const Graph& g,
                                        const std::vector<NodeId>& sources,
                                        SimConfig cfg) {
  if (cfg.phase.empty()) cfg.phase = "bellman_ford";
  SuperSourceBfProtocol protocol(g.num_nodes(), sources);
  Simulator sim(g, protocol, cfg);
  const SimStats stats = sim.run();
  DS_CHECK(!stats.hit_round_limit);
  return protocol.take_result(stats);
}

SimStats online_distance_rounds(const Graph& g, NodeId source, SimConfig cfg) {
  return run_super_source_bf(g, {source}, cfg).stats;
}

}  // namespace dsketch
