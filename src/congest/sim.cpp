#include "congest/sim.hpp"

#include <algorithm>
#include <chrono>

#include "congest/fault_plan.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace dsketch {

std::uint64_t NodeCtx::round() const { return sim_.round(); }
std::uint32_t NodeCtx::degree() const { return sim_.degree_of(node_); }
NodeId NodeCtx::neighbor(std::uint32_t local_edge) const {
  return sim_.neighbor_of(node_, local_edge);
}
Weight NodeCtx::edge_weight(std::uint32_t local_edge) const {
  return sim_.weight_of(node_, local_edge);
}
std::span<const Inbound> NodeCtx::inbox() const {
  return sim_.inbox_of(node_);
}
void NodeCtx::send(std::uint32_t local_edge, const Message& m) {
  sim_.enqueue(node_, local_edge, m, lane_);
}
void NodeCtx::broadcast(const Message& m) {
  sim_.enqueue_all(node_, m, lane_);
}
void NodeCtx::wake() { sim_.wake(node_); }
void NodeCtx::wake_at(std::uint64_t round) { sim_.schedule_wake(node_, round); }
std::size_t NodeCtx::outbox_depth(std::uint32_t local_edge) const {
  return sim_.outbox_depth(node_, local_edge);
}

namespace {
// The lanes fan_out runs on: one per thread of the pool it uses.
std::size_t lanes_for(unsigned threads) {
  if (threads == 1) return 1;
  return threads == 0 ? global_pool().lanes() : threads;
}
}  // namespace

Simulator::Simulator(const Graph& graph, Protocol& protocol, SimConfig cfg)
    : graph_(graph),
      protocol_(protocol),
      cfg_(cfg),
      store_(lanes_for(cfg.threads)) {
  DS_CHECK(cfg_.max_message_words <= kMaxMessageCapacity);
  const NodeId n = graph_.num_nodes();
  const std::size_t half_edges = 2 * graph_.num_edges();
  outbox_.resize(half_edges);
  head_.resize(half_edges);
  twin_.resize(half_edges);
  for (NodeId u = 0; u < n; ++u) {
    const auto adj = graph_.neighbors(u);
    for (std::size_t local = 0; local < adj.size(); ++local) {
      const std::size_t h = graph_.half_edge_index(u, local);
      head_[h] = adj[local].to;
      twin_[h] = graph_.twin(u, local);
    }
  }
  inbox_.resize(n);
  wake_flag_.assign(n, 0);
  wake_at_scratch_.resize(n);
  dirty_local_.resize(n);
  start_pending_.assign(n, 0);
  next_active_ = IdSet(n);
  next_ready_ = IdSet(n);
  inbound_busy_.assign(half_edges, 0);
  stats_.label = cfg_.phase;
  if (cfg_.round_log != nullptr) cfg_.round_log->begin_phase(cfg_.phase);
  faults_ = cfg_.faults;
  if (faults_ != nullptr || cfg_.async_max_delay > 1) {
    send_seq_.assign(half_edges, 0);
  }
  if (faults_ != nullptr) {
    down_.assign(n, 0);
    restart_pending_.assign(n, 0);
    restart_round_.assign(n, 0);
    for (const CrashEvent& c : faults_->crashes()) {
      fault_events_.push_back(FaultEvent{c.at, c.node, false, c.restart});
      fault_events_.push_back(FaultEvent{c.restart, c.node, true, 0});
    }
    std::sort(fault_events_.begin(), fault_events_.end(),
              [](const FaultEvent& a, const FaultEvent& b) {
                if (a.round != b.round) return a.round < b.round;
                if (a.restart != b.restart) return a.restart;  // restarts first
                return a.node < b.node;
              });
  }
  activate_all();
}

Simulator::~Simulator() = default;

ThreadPool* Simulator::pool() {
  if (cfg_.threads == 0) return &global_pool();
  if (own_pool_ == nullptr) {
    own_pool_ = std::make_unique<ThreadPool>(cfg_.threads);
  }
  return own_pool_.get();
}

void Simulator::fan_out(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& body) {
  // Small batches run inline: waking the pool costs more than they do.
  if (cfg_.threads == 1 || count < 64) {
    for (std::size_t i = 0; i < count; ++i) body(0, i);
  } else {
    pool()->for_each_dynamic(count, body);
  }
}

void Simulator::activate_all() {
  const NodeId n = graph_.num_nodes();
  for (NodeId u = 0; u < n; ++u) {
    start_pending_[u] = 1;
    next_active_.insert(u);
  }
}

void Simulator::activate(const std::vector<NodeId>& nodes) {
  for (NodeId u : nodes) {
    DS_CHECK(u < graph_.num_nodes());
    start_pending_[u] = 1;
    next_active_.insert(u);
  }
}

void Simulator::enqueue(NodeId u, std::uint32_t local, const Message& m,
                        std::size_t lane) {
  DS_CHECK(m.size_words() <= cfg_.max_message_words);
  auto& box = outbox_[graph_.half_edge_index(u, local)];
  // A box can go empty→nonempty at most once per step (pops happen only at
  // delivery), so this records each newly busy half-edge exactly once. The
  // dirty list is node-owned: only u's own step enqueues on u's half-edges.
  if (box.empty()) dirty_local_[u].push_back(local);
  store_.push(box, m, lane);
}

void Simulator::enqueue_all(NodeId u, const Message& m, std::size_t lane) {
  DS_CHECK(m.size_words() <= cfg_.max_message_words);
  const std::size_t base = graph_.half_edge_index(u, 0);
  const auto deg = static_cast<std::uint32_t>(graph_.degree(u));
  auto& dirty = dirty_local_[u];
  for (std::uint32_t local = 0; local < deg; ++local) {
    auto& box = outbox_[base + local];
    if (box.empty()) dirty.push_back(local);
    store_.push(box, m, lane);
  }
}

SimStats Simulator::run() {
  for (;;) {
    if (faults_ != nullptr) apply_fault_events();
    land_due();
    if (next_active_.empty() && busy_slots_ == 0) {
      const bool pending_faults =
          faults_ != nullptr && next_fault_event_ < fault_events_.size();
      if (!wheel_.empty() || pending_faults) {
        // Nothing happens until the next landing, timer, or fault event;
        // fast-forward the round counter to it.
        std::uint64_t next = static_cast<std::uint64_t>(-1);
        if (!wheel_.empty()) next = wheel_.begin()->first;
        if (pending_faults) {
          next = std::min(next, fault_events_[next_fault_event_].round);
        }
        round_ = next;
        stats_.rounds = round_;
        continue;
      }
      if (!protocol_.on_quiescent(*this)) break;
      if (next_active_.empty() && busy_slots_ == 0 && wheel_.empty()) break;
      continue;  // the oracle check itself consumes no rounds
    }
    if (round_ >= cfg_.max_rounds) {
      stats_.hit_round_limit = true;
      break;
    }
    next_active_.drain(active_);
    const std::uint64_t active_nodes = active_.size();
    const std::uint64_t prev_messages = stats_.messages;
    const std::uint64_t prev_words = stats_.words;
    const std::uint64_t prev_dropped = stats_.dropped;
    using Clock = std::chrono::steady_clock;
    const Clock::time_point t0 = Clock::now();
    step_active_nodes();
    const Clock::time_point t1 = Clock::now();
    splice_new_work();
    const Clock::time_point t2 = Clock::now();
    deliver();
    const Clock::time_point t3 = Clock::now();
    const auto ns = [](Clock::time_point a, Clock::time_point b) {
      return static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
    };
    const std::uint64_t step_ns = ns(t0, t1);
    const std::uint64_t splice_ns = ns(t1, t2);
    const std::uint64_t deliver_ns = ns(t2, t3);
    stats_.step_seconds += static_cast<double>(step_ns) * 1e-9;
    stats_.splice_seconds += static_cast<double>(splice_ns) * 1e-9;
    stats_.deliver_seconds += static_cast<double>(deliver_ns) * 1e-9;
    if (cfg_.round_log != nullptr) {
      cfg_.round_log->record(obs::RoundSample{
          round_, stats_.messages - prev_messages, stats_.words - prev_words,
          active_nodes, stats_.max_outbox, stats_.dropped - prev_dropped,
          step_ns, splice_ns, deliver_ns});
    }
    ++round_;
    stats_.rounds = round_;
  }
  if (cfg_.round_log != nullptr) cfg_.round_log->flush();
  return stats_;
}

void Simulator::apply_fault_events() {
  while (next_fault_event_ < fault_events_.size() &&
         fault_events_[next_fault_event_].round <= round_) {
    const FaultEvent ev = fault_events_[next_fault_event_++];
    const NodeId u = ev.node;
    if (ev.restart) {
      if (!down_[u]) continue;
      down_[u] = 0;
      restart_pending_[u] = 1;
      next_active_.insert(u);
    } else {
      restart_round_[u] = ev.restart_at;
      crash_node(u);
    }
  }
}

void Simulator::crash_node(NodeId u) {
  down_[u] = 1;
  protocol_.on_crash(u);
  // Messages delivered but not yet processed are lost with the node.
  stats_.dropped += inbox_[u].size();
  inbox_[u].clear();
  // Queued-but-untransmitted outbound messages vanish too. They were
  // never counted as transmissions, so they don't count as drops either.
  // Their chunks go back to the store and their receiver-side marks go.
  const std::size_t base = graph_.half_edge_index(u, 0);
  const auto deg = static_cast<std::uint32_t>(graph_.degree(u));
  for (std::size_t h = base; h < base + deg; ++h) {
    if (outbox_[h].empty()) continue;
    store_.release(outbox_[h], 0);
    inbound_busy_[twin_[h]] = 0;
    --busy_slots_;
  }
}

void Simulator::land_due() {
  const auto it = wheel_.find(round_);
  if (it == wheel_.end()) return;
  // Move out first: deferring a down node's timer inserts into the wheel.
  const std::vector<Landing> due = std::move(it->second);
  wheel_.erase(it);
  for (const Landing& l : due) {
    if (faults_ != nullptr && down_[l.to]) {
      if (l.to_local == kTimer) {
        // The node sleeps through its timer; fire it at restart instead.
        wheel_[restart_round_[l.to]].push_back(l);
      } else {
        ++stats_.dropped;  // delivered into a crashed node
      }
      continue;
    }
    next_active_.insert(l.to);
    if (l.to_local != kTimer) {
      inbox_[l.to].push_back(Inbound{l.to_local, l.msg});
    }
  }
}

void Simulator::step_active_nodes() {
  std::uint64_t stepped = active_.size();
  if (faults_ != nullptr) {
    // Serial prepass: crashed nodes sleep through this round and lose
    // anything that reached their inbox in the meantime.
    for (const NodeId u : active_) {
      if (down_[u]) {
        --stepped;
        stats_.dropped += inbox_[u].size();
        inbox_[u].clear();
      }
    }
  }
  stats_.node_steps += stepped;
  fan_out(active_.size(), [this](std::size_t lane, std::size_t idx) {
    const NodeId u = active_[idx];
    if (faults_ != nullptr) {
      if (down_[u]) return;
      auto& in = inbox_[u];
      if (in.size() > 1 && faults_->reorder_inbox(u, round_)) {
        Rng shuffle_rng(faults_->reorder_seed(u, round_));
        for (std::size_t i = in.size() - 1; i > 0; --i) {
          std::swap(in[i], in[shuffle_rng.below(i + 1)]);
        }
      }
    }
    NodeCtx ctx(*this, u, lane);
    if (start_pending_[u]) {
      start_pending_[u] = 0;
      if (faults_ != nullptr) restart_pending_[u] = 0;
      protocol_.on_start(ctx);
    } else if (faults_ != nullptr && restart_pending_[u]) {
      restart_pending_[u] = 0;
      protocol_.on_restart(ctx);
    } else {
      protocol_.on_round(ctx);
    }
    inbox_[u].clear();
  });
}

void Simulator::splice_new_work() {
  // Fold node-owned scratch produced by the (possibly parallel) step into
  // the shared schedules, in active-node (id) order so the wheel's
  // contents are independent of thread count. A newly busy half-edge is
  // marked at its receiver-side slot, and its receiver is made ready.
  for (const NodeId u : active_) {
    const std::size_t base = graph_.half_edge_index(u, 0);
    for (const std::uint32_t local : dirty_local_[u]) {
      const std::size_t h = base + local;
      inbound_busy_[twin_[h]] = 1;
      next_ready_.insert(head_[h]);
    }
    busy_slots_ += dirty_local_[u].size();
    dirty_local_[u].clear();
    for (const std::uint64_t at : wake_at_scratch_[u]) {
      wheel_[at].push_back(Landing{u, kTimer, Message{}});
    }
    wake_at_scratch_[u].clear();
  }
}

std::uint64_t Simulator::transit(std::size_t half_edge,
                                 std::uint64_t seq) const {
  constexpr std::uint64_t kDelaySalt = 0xde1a7;
  if (cfg_.async_max_delay <= 1) return 1;
  return 1 + keyed_hash(cfg_.async_seed, kDelaySalt, half_edge, seq) %
                 cfg_.async_max_delay;
}

void Simulator::deliver() {
  // Next round's active set starts with the stepped nodes that asked for
  // a wake; the fold adds every receiver the pull put something in front
  // of.
  for (const NodeId u : active_) {
    if (wake_flag_[u]) {
      wake_flag_[u] = 0;
      next_active_.insert(u);
    }
  }

  // Receiver pull. A busy half-edge stays marked at its receiver-side slot
  // (v, l) until its queue drains; each ready receiver ships one message
  // from each of its marked slots, in local-edge order. Every half-edge
  // has exactly one receiver, so the pulls are data-race-free and
  // parallelize over receivers, and the arrivals due next round reach
  // each inbox in (local_edge, FIFO) order. A pull gives the chunks it
  // empties back on its own lane.
  next_ready_.drain(ready_);
  if (deltas_.size() < ready_.size()) deltas_.resize(ready_.size());
  fan_out(ready_.size(), [this](std::size_t lane, std::size_t i) {
    const NodeId to = ready_[i];
    const std::size_t base = graph_.half_edge_index(to, 0);
    const auto deg = static_cast<std::uint32_t>(graph_.degree(to));
    ReceiverDelta& delta = deltas_[i];
    SimCounters& counts = delta.counts;
    auto& later = delta.later;
    auto& in = inbox_[to];
    for (std::uint32_t to_local = 0; to_local < deg; ++to_local) {
      const std::size_t r = base + to_local;
      if (!inbound_busy_[r]) continue;
      const std::size_t h = twin_[r];  // the sending half-edge
      auto& box = outbox_[h];
      if (box.size() > counts.max_outbox) counts.max_outbox = box.size();
      std::size_t ship = cfg_.enforce_capacity ? 1 : box.size();
      counts.messages += ship;
      for (; ship > 0; --ship, store_.pop(box, lane)) {
        const Message& m = box.front();
        counts.words += m.size_words();
        if (!send_seq_.empty()) {
          // (seed, half-edge, that edge's transmission count) keys every
          // decision: the counter is advanced by the one lane that pulls
          // h, so each outcome is independent of lane scheduling.
          const std::uint64_t seq = send_seq_[h]++;
          const std::uint64_t arrival = round_ + transit(h, seq);
          if (faults_ != nullptr) {
            if (faults_->drop_transmission(h, seq, round_)) {
              ++counts.dropped;
              continue;
            }
            if (faults_->duplicate_transmission(h, seq)) {
              ++counts.duplicated;
              later.emplace_back(arrival + 1, Landing{to, to_local, m});
            }
          }
          if (arrival > round_ + 1) {
            later.emplace_back(arrival, Landing{to, to_local, m});
            continue;
          }
        }
        in.push_back(Inbound{to_local, m});
      }
      if (box.empty()) {
        inbound_busy_[r] = 0;
        ++delta.drained;
      } else {
        delta.still_busy = true;
      }
    }
  });

  // Serial fold in receiver order, so the stats and the wheel's entry
  // order are independent of lane count. The one wake rule: a receiver is
  // stepped next round if and only if something reached its inbox (not
  // when everything it was sent was dropped or delayed). A receiver with
  // a queue still busy stays ready.
  for (std::size_t i = 0; i < ready_.size(); ++i) {
    ReceiverDelta& delta = deltas_[i];
    stats_.fold(delta.counts);
    delta.counts = {};
    for (const auto& [at, landing] : delta.later) {
      wheel_[at].push_back(landing);
    }
    delta.later.clear();
    busy_slots_ -= delta.drained;
    delta.drained = 0;
    const NodeId to = ready_[i];
    if (delta.still_busy) {
      next_ready_.insert(to);
      delta.still_busy = false;
    }
    if (!inbox_[to].empty()) next_active_.insert(to);
  }
  store_.rebalance();
}

}  // namespace dsketch
