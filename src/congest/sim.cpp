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
  sim_.enqueue(node_, local_edge, m);
}
void NodeCtx::broadcast(const Message& m) { sim_.enqueue_all(node_, m); }
void NodeCtx::wake() { sim_.wake(node_); }
void NodeCtx::wake_at(std::uint64_t round) { sim_.schedule_wake(node_, round); }
std::size_t NodeCtx::outbox_depth(std::uint32_t local_edge) const {
  return sim_.outbox_depth(node_, local_edge);
}

Simulator::Simulator(const Graph& graph, Protocol& protocol, SimConfig cfg)
    : graph_(graph), protocol_(protocol), cfg_(cfg) {
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
  in_active_list_.assign(n, 0);
  edge_busy_flag_.assign(half_edges, 0);
  ready_flag_.assign(n, 0);
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

void Simulator::fan_out(std::size_t count,
                        const std::function<void(std::size_t)>& body) {
  // Small batches run inline: waking the pool costs more than they do.
  if (cfg_.threads == 1 || count < 64) {
    for (std::size_t i = 0; i < count; ++i) body(i);
  } else {
    pool()->parallel_for(count, body);
  }
}

bool Simulator::activate_node(NodeId u) {
  if (in_active_list_[u]) return false;
  in_active_list_[u] = 1;
  active_.push_back(u);
  return true;
}

void Simulator::activate_all() {
  const NodeId n = graph_.num_nodes();
  for (NodeId u = 0; u < n; ++u) {
    start_pending_[u] = 1;
    activate_node(u);
  }
  std::sort(active_.begin(), active_.end());
}

void Simulator::activate(const std::vector<NodeId>& nodes) {
  for (NodeId u : nodes) {
    DS_CHECK(u < graph_.num_nodes());
    start_pending_[u] = 1;
    activate_node(u);
  }
  std::sort(active_.begin(), active_.end());
}

void Simulator::enqueue(NodeId u, std::uint32_t local, const Message& m) {
  DS_CHECK(m.size_words() <= cfg_.max_message_words);
  auto& box = outbox_[graph_.half_edge_index(u, local)];
  // A box can go empty→nonempty at most once per step (pops happen only at
  // delivery), so this records each newly busy half-edge exactly once. The
  // dirty list is node-owned: only u's own step enqueues on u's half-edges.
  if (box.empty()) dirty_local_[u].push_back(local);
  box.push(m);
}

void Simulator::enqueue_all(NodeId u, const Message& m) {
  DS_CHECK(m.size_words() <= cfg_.max_message_words);
  const std::size_t base = graph_.half_edge_index(u, 0);
  const auto deg = static_cast<std::uint32_t>(graph_.degree(u));
  auto& dirty = dirty_local_[u];
  for (std::uint32_t local = 0; local < deg; ++local) {
    auto& box = outbox_[base + local];
    if (box.empty()) dirty.push_back(local);
    box.push(m);
  }
}

SimStats Simulator::run() {
  for (;;) {
    if (faults_ != nullptr) apply_fault_events();
    land_due();
    if (active_.empty() && busy_edges_.empty()) {
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
      if (active_.empty() && busy_edges_.empty() && wheel_.empty()) break;
      continue;  // the oracle check itself consumes no rounds
    }
    if (round_ >= cfg_.max_rounds) {
      stats_.hit_round_limit = true;
      break;
    }
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
  bool touched = false;
  while (next_fault_event_ < fault_events_.size() &&
         fault_events_[next_fault_event_].round <= round_) {
    const FaultEvent ev = fault_events_[next_fault_event_++];
    const NodeId u = ev.node;
    if (ev.restart) {
      if (!down_[u]) continue;
      down_[u] = 0;
      restart_pending_[u] = 1;
      touched |= activate_node(u);
    } else {
      restart_round_[u] = ev.restart_at;
      crash_node(u);
    }
  }
  if (touched) std::sort(active_.begin(), active_.end());
}

void Simulator::crash_node(NodeId u) {
  down_[u] = 1;
  protocol_.on_crash(u);
  // Messages delivered but not yet processed are lost with the node.
  stats_.dropped += inbox_[u].size();
  inbox_[u].clear();
  // Queued-but-untransmitted outbound messages vanish too. They were
  // never counted as transmissions, so they don't count as drops either.
  bool emptied = false;
  const auto deg = static_cast<std::uint32_t>(graph_.degree(u));
  for (std::uint32_t local = 0; local < deg; ++local) {
    const std::size_t h = graph_.half_edge_index(u, local);
    if (!outbox_[h].empty()) {
      outbox_[h] = Outbox{};
      emptied = true;
    }
  }
  if (emptied) retire_drained_edges();
}

void Simulator::land_due() {
  const auto it = wheel_.find(round_);
  if (it == wheel_.end()) return;
  // Move out first: deferring a down node's timer inserts into the wheel.
  const std::vector<Landing> due = std::move(it->second);
  wheel_.erase(it);
  bool touched = false;
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
    touched |= activate_node(l.to);
    if (l.to_local != kTimer) {
      inbox_[l.to].push_back(Inbound{l.to_local, l.msg});
    }
  }
  if (touched) std::sort(active_.begin(), active_.end());
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
  fan_out(active_.size(), [this](std::size_t idx) {
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
    NodeCtx ctx(*this, u);
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
  // the shared schedules, in sorted active-node order so busy_edges_ and
  // the wheel's contents are independent of thread count.
  for (const NodeId u : active_) {
    for (const std::uint32_t local : dirty_local_[u]) {
      const std::size_t h = graph_.half_edge_index(u, local);
      if (!edge_busy_flag_[h]) {
        edge_busy_flag_[h] = 1;
        busy_edges_.push_back(h);
      }
    }
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
  // a wake; the pull adds every receiver it put something in front of.
  stepped_.swap(active_);
  active_.clear();
  for (const NodeId u : stepped_) {
    in_active_list_[u] = 0;
    if (wake_flag_[u]) {
      wake_flag_[u] = 0;
      activate_node(u);
    }
  }

  // Receiver pull. Each busy half-edge is marked at its receiver-side slot
  // (v, l); each receiver then drains its marked slots in local-edge
  // order. Every half-edge has exactly one receiver, so the pulls are
  // data-race-free and parallelize over receivers, and the arrivals due
  // next round reach each inbox in (local_edge, FIFO) order.
  ready_.clear();
  for (const std::size_t h : busy_edges_) {
    const NodeId to = head_[h];
    inbound_busy_[twin_[h]] = 1;
    if (!ready_flag_[to]) {
      ready_flag_[to] = 1;
      ready_.push_back(to);
    }
  }
  std::sort(ready_.begin(), ready_.end());

  if (deltas_.size() < ready_.size()) deltas_.resize(ready_.size());
  fan_out(ready_.size(), [this](std::size_t i) {
    const NodeId to = ready_[i];
    const std::size_t base = graph_.half_edge_index(to, 0);
    const auto deg = static_cast<std::uint32_t>(graph_.degree(to));
    SimCounters& counts = deltas_[i].counts;
    auto& later = deltas_[i].later;
    auto& in = inbox_[to];
    for (std::uint32_t to_local = 0; to_local < deg; ++to_local) {
      const std::size_t r = base + to_local;
      if (!inbound_busy_[r]) continue;
      inbound_busy_[r] = 0;
      const std::size_t h = twin_[r];  // the sending half-edge
      auto& box = outbox_[h];
      if (box.size() > counts.max_outbox) counts.max_outbox = box.size();
      std::size_t ship = cfg_.enforce_capacity ? 1 : box.size();
      counts.messages += ship;
      for (; ship > 0; --ship, box.pop()) {
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
    }
  });

  // Serial fold in receiver order, so the stats and the wheel's entry
  // order are independent of lane count. The one wake rule: a receiver is
  // stepped next round if and only if something reached its inbox (not
  // when everything it was sent was dropped or delayed).
  for (std::size_t i = 0; i < ready_.size(); ++i) {
    ReceiverDelta& delta = deltas_[i];
    stats_.fold(delta.counts);
    delta.counts = {};
    for (const auto& [at, landing] : delta.later) {
      wheel_[at].push_back(landing);
    }
    delta.later.clear();
    const NodeId to = ready_[i];
    if (!inbox_[to].empty()) activate_node(to);
    ready_flag_[to] = 0;
  }
  retire_drained_edges();
  std::sort(active_.begin(), active_.end());
}

void Simulator::retire_drained_edges() {
  // Compacts in place, keeping the busy list in its previous order.
  std::size_t kept = 0;
  for (const std::size_t h : busy_edges_) {
    if (!outbox_[h].empty()) {
      busy_edges_[kept++] = h;
    } else {
      edge_busy_flag_[h] = 0;
    }
  }
  busy_edges_.resize(kept);
}

}  // namespace dsketch
