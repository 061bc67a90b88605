#include <gtest/gtest.h>

#include <chrono>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "congest/sim.hpp"
#include "graph/generators.hpp"

namespace dsketch {
namespace {

/// Flood protocol: node 0 sends a token; every receiver re-floods once.
/// Completes in exactly ecc(0) rounds of useful work.
class FloodProtocol : public Protocol {
 public:
  explicit FloodProtocol(NodeId n) : seen_(n, 0), seen_round_(n, 0) {}

  void on_start(NodeCtx& ctx) override {
    if (ctx.node() == 0) {
      seen_[0] = 1;
      ctx.broadcast(Message{42});
    }
  }
  void on_round(NodeCtx& ctx) override {
    if (!ctx.inbox().empty() && !seen_[ctx.node()]) {
      seen_[ctx.node()] = 1;
      seen_round_[ctx.node()] = ctx.round();
      ctx.broadcast(Message{42});
    }
  }

  bool all_seen() const {
    for (const char s : seen_) {
      if (!s) return false;
    }
    return true;
  }
  std::uint64_t seen_round(NodeId u) const { return seen_round_[u]; }

 private:
  std::vector<char> seen_;
  std::vector<std::uint64_t> seen_round_;
};

TEST(Simulator, FloodReachesEveryone) {
  const Graph g = erdos_renyi(100, 0.05, {1, 5}, 2);
  FloodProtocol p(g.num_nodes());
  Simulator sim(g, p);
  const SimStats stats = sim.run();
  EXPECT_TRUE(p.all_seen());
  EXPECT_FALSE(stats.hit_round_limit);
  EXPECT_GT(stats.messages, 0u);
}

TEST(Simulator, FloodRoundsEqualHopDistance) {
  const Graph g = path(10, {1, 1}, 0);
  FloodProtocol p(g.num_nodes());
  Simulator sim(g, p);
  sim.run();
  // Node i hears the token exactly at round i (sent in round i-1).
  for (NodeId u = 1; u < 10; ++u) EXPECT_EQ(p.seen_round(u), u);
}

TEST(Simulator, MessageCountedPerEdgeTraversal) {
  // Triangle flood: 0 broadcasts (2 msgs); 1 and 2 each broadcast (2 each).
  const Graph g = complete(3, {1, 1}, 0);
  FloodProtocol p(3);
  Simulator sim(g, p);
  const SimStats stats = sim.run();
  EXPECT_EQ(stats.messages, 6u);
}

/// Sends `count` messages on edge 0 at once; capacity must spread them
/// across rounds.
class BurstProtocol : public Protocol {
 public:
  explicit BurstProtocol(std::size_t count) : count_(count) {}
  void on_start(NodeCtx& ctx) override {
    if (ctx.node() == 0) {
      for (std::size_t i = 0; i < count_; ++i) {
        ctx.send(0, Message{static_cast<Word>(i)});
      }
    }
  }
  void on_round(NodeCtx& ctx) override {
    for (const Inbound& in : ctx.inbox()) {
      received_.push_back(in.msg.at(0));
      receive_rounds_.push_back(ctx.round());
    }
  }
  const std::vector<Word>& received() const { return received_; }
  const std::vector<std::uint64_t>& receive_rounds() const {
    return receive_rounds_;
  }

 private:
  std::size_t count_;
  std::vector<Word> received_;
  std::vector<std::uint64_t> receive_rounds_;
};

TEST(Simulator, EdgeCapacityOneMessagePerRound) {
  const Graph g = path(2, {1, 1}, 0);
  BurstProtocol p(5);
  Simulator sim(g, p);
  const SimStats stats = sim.run();
  ASSERT_EQ(p.received().size(), 5u);
  // FIFO order preserved and one delivery per round.
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(p.received()[i], i);
    EXPECT_EQ(p.receive_rounds()[i], i + 1);
  }
  EXPECT_GE(stats.rounds, 5u);
  EXPECT_EQ(stats.max_outbox, 5u);
}

TEST(Simulator, CapacityAblationShipsBurstAtOnce) {
  const Graph g = path(2, {1, 1}, 0);
  BurstProtocol p(5);
  SimConfig cfg;
  cfg.enforce_capacity = false;
  Simulator sim(g, p, cfg);
  sim.run();
  ASSERT_EQ(p.received().size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(p.receive_rounds()[i], 1u);
  }
}

TEST(Simulator, WordAccounting) {
  const Graph g = path(2, {1, 1}, 0);
  BurstProtocol p(3);
  Simulator sim(g, p);
  const SimStats stats = sim.run();
  EXPECT_EQ(stats.messages, 3u);
  EXPECT_EQ(stats.words, 3u);  // one word per message
}

/// Wake-based counter: counts rounds it stays awake without any messages.
class WakeProtocol : public Protocol {
 public:
  void on_start(NodeCtx& ctx) override {
    if (ctx.node() == 0) ctx.wake();
  }
  void on_round(NodeCtx& ctx) override {
    ++wakes_;
    if (wakes_ < 5) ctx.wake();
  }
  int wakes() const { return wakes_; }

 private:
  int wakes_ = 0;
};

/// Timer protocol: node 0 schedules a wake far in the future; the simulator
/// must fast-forward idle rounds (cheaply) while still counting them.
class TimerProtocol : public Protocol {
 public:
  void on_start(NodeCtx& ctx) override {
    if (ctx.node() == 0) ctx.wake_at(1000);
  }
  void on_round(NodeCtx& ctx) override { fired_round_ = ctx.round(); }
  std::uint64_t fired_round() const { return fired_round_; }

 private:
  std::uint64_t fired_round_ = 0;
};

TEST(Simulator, WakeAtFastForwardsIdleRounds) {
  const Graph g = ring(16, {1, 1}, 0);
  TimerProtocol p;
  Simulator sim(g, p);
  const SimStats stats = sim.run();
  EXPECT_EQ(p.fired_round(), 1000u);
  EXPECT_GE(stats.rounds, 1000u);
  // Fast-forward means almost no node steps despite 1000 rounds.
  EXPECT_LE(stats.node_steps, 20u);
}

TEST(Simulator, WakeAtPastRoundFiresNextRound) {
  const Graph g = ring(8, {1, 1}, 0);

  class PastTimer : public Protocol {
   public:
    void on_start(NodeCtx& ctx) override {
      if (ctx.node() == 0) ctx.wake_at(0);  // already passed
    }
    void on_round(NodeCtx&) override { ++fires_; }
    int fires_ = 0;
  };
  PastTimer p;
  Simulator sim(g, p);
  sim.run();
  EXPECT_EQ(p.fires_, 1);
}

TEST(Simulator, WakeKeepsNodeActiveWithoutMessages) {
  const Graph g = path(3, {1, 1}, 0);
  WakeProtocol p;
  Simulator sim(g, p);
  sim.run();
  EXPECT_EQ(p.wakes(), 5);
}

/// Quiescence hook restarts the run twice.
class PhasedProtocol : public Protocol {
 public:
  void on_start(NodeCtx& ctx) override {
    if (ctx.node() == 0) ctx.broadcast(Message{static_cast<Word>(phase_)});
  }
  void on_round(NodeCtx&) override {}
  bool on_quiescent(Simulator& sim) override {
    if (++phase_ < 3) {
      sim.activate_all();
      return true;
    }
    return false;
  }
  int phases() const { return phase_; }

 private:
  int phase_ = 0;
};

TEST(Simulator, QuiescenceDrivesPhases) {
  const Graph g = ring(8, {1, 1}, 0);
  PhasedProtocol p;
  Simulator sim(g, p);
  sim.run();
  EXPECT_EQ(p.phases(), 3);
}

TEST(Simulator, RoundLimitFlag) {
  const Graph g = ring(8, {1, 1}, 0);

  class Chatter : public Protocol {
   public:
    void on_start(NodeCtx& ctx) override { ctx.broadcast(Message{1}); }
    void on_round(NodeCtx& ctx) override { ctx.broadcast(Message{1}); }
  };
  Chatter p;
  SimConfig cfg;
  cfg.max_rounds = 50;
  Simulator sim(g, p, cfg);
  const SimStats stats = sim.run();
  EXPECT_TRUE(stats.hit_round_limit);
  EXPECT_EQ(stats.rounds, 50u);
}

TEST(Simulator, DeterministicAcrossThreadCounts) {
  const Graph g = erdos_renyi(200, 0.03, {1, 7}, 13);

  auto run_flood = [&](unsigned threads) {
    FloodProtocol p(g.num_nodes());
    SimConfig cfg;
    cfg.threads = threads;
    Simulator sim(g, p, cfg);
    const SimStats stats = sim.run();
    std::vector<std::uint64_t> rounds;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      rounds.push_back(p.seen_round(u));
    }
    rounds.push_back(stats.messages);
    rounds.push_back(stats.rounds);
    return rounds;
  };
  EXPECT_EQ(run_flood(1), run_flood(4));
  EXPECT_EQ(run_flood(1), run_flood(0));  // 0 = hardware concurrency
}

/// Every node floods once and records the OS thread that stepped it. A
/// step waits, within one shared budget of about a second, until
/// `lanes` distinct threads have stepped nodes, so the run shows how many
/// lanes the simulator's pool really has.
class LaneProbeProtocol : public Protocol {
 public:
  explicit LaneProbeProtocol(std::size_t lanes)
      : lanes_(lanes),
        deadline_(std::chrono::steady_clock::now() + std::chrono::seconds(1)) {}

  void on_start(NodeCtx& ctx) override {
    note();
    ctx.broadcast(Message{1});
  }
  void on_round(NodeCtx&) override { note(); }

  std::size_t threads_seen() {
    const std::lock_guard<std::mutex> lock(mu_);
    return threads_.size();
  }

 private:
  void note() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      threads_.insert(std::this_thread::get_id());
    }
    while (threads_seen() < lanes_ &&
           std::chrono::steady_clock::now() < deadline_) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  const std::size_t lanes_;
  const std::chrono::steady_clock::time_point deadline_;
  std::mutex mu_;
  std::set<std::thread::id> threads_;  // guarded by mu_
};

TEST(Simulator, ThreadsSetsTheNumberOfSteppingLanes) {
  // 128 nodes are active in each of the two rounds: the step fans out to
  // the pool only from 64 active nodes up.
  const Graph g = ring(128, {1, 1}, 0);
  for (const unsigned threads : {2u, 3u, 4u}) {
    LaneProbeProtocol p(threads);
    SimConfig cfg;
    cfg.threads = threads;
    Simulator sim(g, p, cfg);
    sim.run();
    EXPECT_EQ(p.threads_seen(), threads) << "threads = " << threads;
  }
}

TEST(Simulator, MessageSizeCapEnforced) {
  const Graph g = path(2, {1, 1}, 0);

  class Oversized : public Protocol {
   public:
    void on_start(NodeCtx& ctx) override {
      if (ctx.node() == 0) {
        ctx.send(0, Message{1, 2, 3, 4, 5});  // 5 words > default cap 4
      }
    }
    void on_round(NodeCtx&) override {}
  };
  Oversized p;
  Simulator sim(g, p);
  EXPECT_DEATH(sim.run(), "DS_CHECK");
}

}  // namespace
}  // namespace dsketch
