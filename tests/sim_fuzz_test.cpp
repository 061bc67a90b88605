// Simulator invariant fuzzing: a protocol that sends random traffic while
// the test audits the model guarantees from the receiving side —
//   - conservation: every sent message is delivered exactly once;
//   - capacity: in synchronous mode at most one message arrives per edge
//     per direction per round;
//   - FIFO per link in synchronous mode;
//   - determinism across runs.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "congest/bfs_tree.hpp"
#include "congest/fault_plan.hpp"
#include "congest/sim.hpp"
#include "graph/generators.hpp"
#include "sketch/hierarchy.hpp"
#include "sketch/tz_centralized.hpp"
#include "sketch/tz_distributed.hpp"
#include "util/rng.hpp"

namespace dsketch {
namespace {

class FuzzProtocol : public Protocol {
 public:
  FuzzProtocol(NodeId n, std::uint64_t seed, int rounds_of_chatter)
      : rngs_(), chatter_rounds_(rounds_of_chatter) {
    rngs_.reserve(n);
    for (NodeId u = 0; u < n; ++u) rngs_.emplace_back(seed ^ (u * 0x9e37ULL));
    last_seq_per_edge_.resize(n);
  }

  void on_start(NodeCtx& ctx) override {
    ctx.wake();
  }

  void on_round(NodeCtx& ctx) override {
    const NodeId u = ctx.node();
    auto& rng = rngs_[u];
    // Audit inbound: per-round per-edge multiplicity and FIFO sequence.
    std::map<std::uint32_t, int> seen_this_round;
    for (const Inbound& in : ctx.inbox()) {
      ++delivered_;
      ++seen_this_round[in.local_edge];
      const Word seq = in.msg.at(1);
      auto& last = last_seq_per_edge_[u];
      if (last.size() <= in.local_edge) last.resize(ctx.degree(), 0);
      EXPECT_GT(seq, last[in.local_edge]) << "FIFO violated";
      last[in.local_edge] = seq;
    }
    for (const auto& [edge, count] : seen_this_round) {
      EXPECT_EQ(count, 1) << "edge capacity violated at node " << u;
    }
    // Random chatter for a bounded number of rounds.
    if (static_cast<int>(ctx.round()) < chatter_rounds_) {
      const std::uint32_t deg = ctx.degree();
      for (std::uint32_t e = 0; e < deg; ++e) {
        if (rng.bernoulli(0.6)) {
          ctx.send(e, Message{u, ++send_seq_});
          ++sent_;
        }
      }
      ctx.wake();
    }
  }

  std::uint64_t sent() const { return sent_; }
  std::uint64_t delivered() const { return delivered_; }

 private:
  std::vector<Rng> rngs_;
  int chatter_rounds_;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  Word send_seq_ = 0;
  // last sequence number seen per (node, local edge)
  std::vector<std::vector<Word>> last_seq_per_edge_;
};

class SimFuzz
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(SimFuzz, ConservationCapacityFifo) {
  const auto [seed, chatter] = GetParam();
  const Graph g = erdos_renyi(60, 0.08, {1, 5}, seed);
  FuzzProtocol p(g.num_nodes(), seed * 17 + 1, chatter);
  Simulator sim(g, p);
  const SimStats stats = sim.run();
  EXPECT_FALSE(stats.hit_round_limit);
  EXPECT_EQ(p.sent(), p.delivered());
  EXPECT_EQ(p.sent(), stats.messages);
}

INSTANTIATE_TEST_SUITE_P(Grid, SimFuzz,
                         ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u),
                                            ::testing::Values(3, 10, 25)));

TEST(SimFuzz, AsyncConservesMessages) {
  const Graph g = erdos_renyi(50, 0.1, {1, 5}, 9);
  // Async delivery may reorder (FIFO audit disabled by construction: each
  // sender uses a global sequence so cross-edge ordering doesn't apply).
  class AsyncCounter : public Protocol {
   public:
    void on_start(NodeCtx& ctx) override {
      if (ctx.node() % 3 == 0) {
        for (std::uint32_t e = 0; e < ctx.degree(); ++e) {
          for (int i = 0; i < 4; ++i) {
            ctx.send(e, Message{static_cast<Word>(i)});
            ++sent_;
          }
        }
      }
    }
    void on_round(NodeCtx& ctx) override {
      delivered_ += ctx.inbox().size();
    }
    std::uint64_t sent_ = 0;
    std::uint64_t delivered_ = 0;
  };
  AsyncCounter p;
  SimConfig cfg;
  cfg.async_max_delay = 7;
  Simulator sim(g, p, cfg);
  const SimStats stats = sim.run();
  EXPECT_EQ(p.sent_, p.delivered_);
  EXPECT_EQ(stats.messages, p.sent_);
}

// Like FuzzProtocol, but all audit state is node-owned so the protocol is
// safe under parallel stepping; counters are reduced after the run.
class ThreadedFuzzProtocol : public Protocol {
 public:
  ThreadedFuzzProtocol(NodeId n, std::uint64_t seed, int rounds_of_chatter)
      : nodes_(n), chatter_rounds_(rounds_of_chatter) {
    for (NodeId u = 0; u < n; ++u) {
      nodes_[u].rng = Rng(seed ^ (u * 0x9e37ULL));
    }
  }

  void on_start(NodeCtx& ctx) override { ctx.wake(); }

  void on_round(NodeCtx& ctx) override {
    NodeState& s = nodes_[ctx.node()];
    std::map<std::uint32_t, int> seen_this_round;
    std::uint32_t prev_edge = 0;
    bool first = true;
    for (const Inbound& in : ctx.inbox()) {
      ++s.delivered;
      ++seen_this_round[in.local_edge];
      // Canonical inbox order: non-decreasing local edge.
      if (!first) EXPECT_GE(in.local_edge, prev_edge) << "inbox unordered";
      prev_edge = in.local_edge;
      first = false;
      const Word seq = in.msg.at(1);
      if (s.last_seq.size() <= in.local_edge) {
        s.last_seq.resize(ctx.degree(), 0);
      }
      EXPECT_GT(seq, s.last_seq[in.local_edge]) << "FIFO violated";
      s.last_seq[in.local_edge] = seq;
    }
    for (const auto& [edge, count] : seen_this_round) {
      EXPECT_EQ(count, 1) << "edge capacity violated at node " << ctx.node();
    }
    if (static_cast<int>(ctx.round()) < chatter_rounds_) {
      const std::uint32_t deg = ctx.degree();
      for (std::uint32_t e = 0; e < deg; ++e) {
        if (s.rng.bernoulli(0.6)) {
          ctx.send(e, Message{ctx.node(), ++s.send_seq});
          ++s.sent;
        }
      }
      ctx.wake();
    }
  }

  std::uint64_t sent() const {
    std::uint64_t total = 0;
    for (const NodeState& s : nodes_) total += s.sent;
    return total;
  }
  std::uint64_t delivered() const {
    std::uint64_t total = 0;
    for (const NodeState& s : nodes_) total += s.delivered;
    return total;
  }

 private:
  struct NodeState {
    Rng rng{0};
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    Word send_seq = 0;  // per-sender sequence: FIFO audit stays per-edge
    std::vector<Word> last_seq;
  };
  std::vector<NodeState> nodes_;
  int chatter_rounds_;
};

TEST(SimFuzz, InvariantsHoldAcrossWorkerThreadCounts) {
  // The model invariants (conservation, capacity, FIFO, canonical inbox
  // order) must hold on the threaded stepping/delivery paths too, and the
  // aggregate stats must be byte-identical to the serial run. 400 nodes
  // keeps the active set above the parallelism threshold.
  for (const std::uint64_t seed : {11u, 12u}) {
    const Graph g = erdos_renyi(400, 0.02, {1, 5}, seed);
    SimStats reference;
    for (const unsigned threads : {1u, 2u, 8u}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " threads=" + std::to_string(threads));
      ThreadedFuzzProtocol p(g.num_nodes(), seed * 31 + 7, 12);
      SimConfig cfg;
      cfg.threads = threads;
      Simulator sim(g, p, cfg);
      const SimStats stats = sim.run();
      EXPECT_FALSE(stats.hit_round_limit);
      EXPECT_EQ(p.sent(), p.delivered());
      EXPECT_EQ(p.sent(), stats.messages);
      if (threads == 1) {
        reference = stats;
      } else {
        EXPECT_EQ(stats.rounds, reference.rounds);
        EXPECT_EQ(stats.messages, reference.messages);
        EXPECT_EQ(stats.words, reference.words);
        EXPECT_EQ(stats.node_steps, reference.node_steps);
        EXPECT_EQ(stats.max_outbox, reference.max_outbox);
      }
    }
  }
}

// Chatter protocol for fault runs: node-owned counters only, and no
// FIFO/capacity/ordering asserts — a FaultPlan legitimately drops,
// duplicates, and reorders, so only conservation-style aggregates and
// cross-thread determinism are checkable.
class FaultChatterProtocol : public Protocol {
 public:
  FaultChatterProtocol(NodeId n, std::uint64_t seed, int rounds_of_chatter)
      : nodes_(n), chatter_rounds_(rounds_of_chatter) {
    for (NodeId u = 0; u < n; ++u) {
      nodes_[u].rng = Rng(seed ^ (u * 0x9e37ULL));
    }
  }

  void on_start(NodeCtx& ctx) override { ctx.wake(); }

  void on_round(NodeCtx& ctx) override {
    NodeState& s = nodes_[ctx.node()];
    s.delivered += ctx.inbox().size();
    for (const Inbound& in : ctx.inbox()) s.payload_sum += in.msg.at(1);
    if (static_cast<int>(ctx.round()) < chatter_rounds_) {
      for (std::uint32_t e = 0; e < ctx.degree(); ++e) {
        if (s.rng.bernoulli(0.6)) {
          ctx.send(e, Message{ctx.node(), ++s.send_seq});
          ++s.sent;
        }
      }
      ctx.wake();
    }
  }

  void on_crash(NodeId node) override { ++nodes_[node].crashes; }

  std::uint64_t sent() const { return sum(&NodeState::sent); }
  std::uint64_t delivered() const { return sum(&NodeState::delivered); }
  std::uint64_t payload_sum() const { return sum(&NodeState::payload_sum); }
  std::uint64_t crashes() const { return sum(&NodeState::crashes); }

 private:
  struct NodeState {
    Rng rng{0};
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t payload_sum = 0;  // order-independent content fingerprint
    std::uint64_t crashes = 0;
    Word send_seq = 0;
  };
  std::uint64_t sum(std::uint64_t NodeState::* field) const {
    std::uint64_t total = 0;
    for (const NodeState& s : nodes_) total += s.*field;
    return total;
  }
  std::vector<NodeState> nodes_;
  int chatter_rounds_;
};

TEST(SimFuzz, FaultPlanRunsIdenticalAcrossThreadCounts) {
  // Randomized fault schedules (drops, duplicates, reorders, link-down
  // windows, crash/restarts) must replay byte-identically from the seed
  // regardless of SimConfig::threads: same stats (including the fault
  // counters), same per-node delivery counts, same delivered content.
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    const Graph g = erdos_renyi(300, 0.03, {1, 5}, seed);
    FaultConfig fc;
    fc.drop_rate = 0.05;
    fc.duplicate_rate = 0.03;
    fc.reorder_rate = 0.1;
    fc.node_crashes = 2;
    fc.crash_horizon = 30;
    fc.crash_downtime = 8;
    fc.link_faults = 3;
    fc.link_fault_horizon = 30;
    fc.link_down_rounds = 6;
    fc.seed = seed * 977 + 5;
    const FaultPlan plan(g, fc);
    SimStats reference;
    std::uint64_t ref_delivered = 0;
    std::uint64_t ref_payload = 0;
    for (const unsigned threads : {1u, 2u, 8u}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " threads=" + std::to_string(threads));
      FaultChatterProtocol p(g.num_nodes(), seed * 31 + 7, 12);
      SimConfig cfg;
      cfg.threads = threads;
      cfg.faults = &plan;
      Simulator sim(g, p, cfg);
      const SimStats stats = sim.run();
      EXPECT_FALSE(stats.hit_round_limit);
      EXPECT_EQ(p.crashes(), 2u);
      if (threads == 1) {
        reference = stats;
        ref_delivered = p.delivered();
        ref_payload = p.payload_sum();
        // The schedule must actually have exercised the fault paths.
        EXPECT_GT(stats.dropped, 0u);
        EXPECT_GT(stats.duplicated, 0u);
        EXPECT_LT(p.delivered(), p.sent() + stats.duplicated);
      } else {
        EXPECT_EQ(stats.rounds, reference.rounds);
        EXPECT_EQ(stats.messages, reference.messages);
        EXPECT_EQ(stats.words, reference.words);
        EXPECT_EQ(stats.node_steps, reference.node_steps);
        EXPECT_EQ(stats.max_outbox, reference.max_outbox);
        EXPECT_EQ(stats.dropped, reference.dropped);
        EXPECT_EQ(stats.duplicated, reference.duplicated);
        EXPECT_EQ(p.delivered(), ref_delivered);
        EXPECT_EQ(p.payload_sum(), ref_payload);
      }
    }
  }
}

TEST(SimFuzz, FaultTolerantTzLabelsIdenticalAcrossThreadCounts) {
  // The whole point of the reliable layer: under a lossy, crashy schedule
  // the distributed TZ build must still converge to byte-identical labels
  // — equal to the centralized ground truth — at every thread count.
  const Graph g = erdos_renyi(100, 0.06, {1, 5}, 31);
  const std::uint32_t k = 2;
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), k, 33);
  const LabelArena central = build_tz_centralized(g, h);
  FaultConfig fc;
  fc.drop_rate = 0.03;
  fc.duplicate_rate = 0.02;
  fc.reorder_rate = 0.05;
  fc.node_crashes = 2;
  fc.crash_horizon = 40;
  fc.crash_downtime = 10;
  fc.seed = 0xfa017ed;
  const FaultPlan plan(g, fc);
  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SimConfig cfg;
    cfg.threads = threads;
    cfg.faults = &plan;
    TzFaultTolerance ft;
    ft.enabled = true;
    ft.rto = 8;
    const auto result =
        build_tz_distributed(g, h, TerminationMode::kOracle, cfg, false, 0, ft);
    ASSERT_TRUE(result.completed);
    EXPECT_GT(result.retransmits, 0u);
    ASSERT_EQ(result.labels.num_nodes(), central.num_nodes());
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      EXPECT_TRUE(result.labels.view(u) == central.view(u)) << "node " << u;
    }
  }
}

TEST(EchoEdgeCases, SingleNodeGraph) {
  // A one-node network: the node elects itself, the BFS "tree" is just
  // the root, and the echo-terminated TZ build completes every phase with
  // zero network traffic.
  const Graph g = Graph::from_edges(1, {});
  const BfsTreeRun run = build_bfs_tree(g);
  EXPECT_EQ(run.tree.root, 0u);
  ASSERT_EQ(run.tree.roots.size(), 1u);
  EXPECT_TRUE(run.tree.is_root(0));
  EXPECT_EQ(run.tree.depth(), 0u);
  EXPECT_EQ(run.stats.messages, 0u);

  const Hierarchy h = Hierarchy::sample(1, 2, 3);
  const auto central = build_tz_centralized(g, h);
  const auto echo = build_tz_distributed(g, h, TerminationMode::kEcho);
  ASSERT_EQ(echo.labels.num_nodes(), 1u);
  EXPECT_TRUE(echo.labels.view(0) == central.view(0));
  EXPECT_EQ(echo.stats.messages, 0u);
}

TEST(EchoEdgeCases, IsolatedVerticesAndMultipleComponents) {
  // 0-1-2 path, 3-4 edge, 5 isolated: flood-max elects the max id of each
  // component, so the BFS forest has roots {2, 4, 5}.
  const Graph g = Graph::from_edges(
      6, {Edge{0, 1, 2}, Edge{1, 2, 3}, Edge{3, 4, 1}});
  const BfsTreeRun run = build_bfs_tree(g);
  const BfsTree& t = run.tree;
  ASSERT_EQ(t.roots, (std::vector<NodeId>{2, 4, 5}));
  EXPECT_EQ(t.root, 2u);
  EXPECT_TRUE(t.is_root(2) && t.is_root(4) && t.is_root(5));
  EXPECT_EQ(t.parent[1], 2u);
  EXPECT_EQ(t.parent[0], 1u);
  EXPECT_EQ(t.parent[3], 4u);
  EXPECT_EQ(t.hops[0], 2u);
  EXPECT_EQ(t.hops[5], 0u);
  EXPECT_TRUE(t.child_edges[5].empty());

  // Echo-terminated TZ on the same forest matches the centralized build;
  // the isolated vertex's label covers only itself.
  const Hierarchy h = Hierarchy::sample(6, 2, 9);
  const auto central = build_tz_centralized(g, h);
  const auto echo = build_tz_distributed(g, h, TerminationMode::kEcho);
  ASSERT_EQ(echo.labels.num_nodes(), 6u);
  for (NodeId u = 0; u < 6; ++u) {
    EXPECT_TRUE(echo.labels.view(u) == central.view(u)) << "node " << u;
  }
}

TEST(SimFuzz, NodeStepsOnlyForActiveNodes) {
  // A silent network must cost zero node steps after round 0.
  class Silent : public Protocol {
   public:
    void on_start(NodeCtx&) override {}
    void on_round(NodeCtx&) override { FAIL() << "no node should step"; }
  };
  const Graph g = ring(100, {1, 1}, 0);
  Silent p;
  Simulator sim(g, p);
  const SimStats stats = sim.run();
  EXPECT_EQ(stats.rounds, 1u);        // the on_start sweep consumes a round
  EXPECT_EQ(stats.node_steps, 100u);  // and nothing steps afterwards
}

}  // namespace
}  // namespace dsketch
