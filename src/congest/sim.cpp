#include "congest/sim.hpp"

#include <algorithm>
#include <chrono>

#include "congest/fault_plan.hpp"
#include "util/assert.hpp"
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
    : graph_(graph), protocol_(protocol), cfg_(cfg),
      delay_rng_(cfg.async_seed) {
  DS_CHECK(cfg_.max_message_words <= kMaxMessageCapacity);
  const NodeId n = graph_.num_nodes();
  const std::size_t half_edges = 2 * graph_.num_edges();
  outbox_.resize(half_edges);
  head_.resize(half_edges);
  head_local_.resize(half_edges);
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
  if (faults_ != nullptr) {
    down_.assign(n, 0);
    restart_pending_.assign(n, 0);
    restart_round_.assign(n, 0);
    send_seq_.assign(half_edges, 0);
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
  resolve_twins();
  activate_all();
}

Simulator::~Simulator() = default;

ThreadPool* Simulator::pool() {
  if (cfg_.threads == 0) return &global_pool();
  if (own_pool_ == nullptr) {
    own_pool_ = std::make_unique<ThreadPool>(cfg_.threads - 1);
  }
  return own_pool_.get();
}

void Simulator::resolve_twins() {
  // Twin resolution: half-edge (u, s) with neighbor v maps to the matching
  // slot of u in v's adjacency. Adjacencies are sorted by (to, weight), so
  // parallel (u,v) edges form contiguous runs on both sides and the i-th
  // slot of u's run pairs with the i-th slot of v's run — no hashing needed.
  const NodeId n = graph_.num_nodes();
  for (NodeId u = 0; u < n; ++u) {
    const auto adj = graph_.neighbors(u);
    std::uint32_t s = 0;
    while (s < adj.size()) {
      const NodeId v = adj[s].to;
      const std::uint32_t run_start = s;
      while (s < adj.size() && adj[s].to == v) ++s;
      const auto vadj = graph_.neighbors(v);
      const auto it = std::lower_bound(
          vadj.begin(), vadj.end(), u,
          [](const HalfEdge& he, NodeId target) { return he.to < target; });
      const std::uint32_t base =
          static_cast<std::uint32_t>(it - vadj.begin());
      for (std::uint32_t i = run_start; i < s; ++i) {
        const std::uint32_t slot = base + (i - run_start);
        DS_CHECK(slot < vadj.size() && vadj[slot].to == u);
        const std::size_t h = graph_.half_edge_index(u, i);
        head_[h] = v;
        head_local_[h] = slot;
      }
    }
  }
}

void Simulator::activate_all() {
  const NodeId n = graph_.num_nodes();
  for (NodeId u = 0; u < n; ++u) {
    start_pending_[u] = 1;
    if (!in_active_list_[u]) {
      in_active_list_[u] = 1;
      active_.push_back(u);
    }
  }
  std::sort(active_.begin(), active_.end());
}

void Simulator::activate(const std::vector<NodeId>& nodes) {
  for (NodeId u : nodes) {
    DS_CHECK(u < graph_.num_nodes());
    start_pending_[u] = 1;
    if (!in_active_list_[u]) {
      in_active_list_[u] = 1;
      active_.push_back(u);
    }
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
    flush_future();
    if (active_.empty() && busy_edges_.empty()) {
      const bool pending_faults =
          faults_ != nullptr && next_fault_event_ < fault_events_.size();
      if (!future_.empty() || !wake_schedule_.empty() || pending_faults) {
        // Nothing happens until the next scheduled arrival, timer, or
        // fault event; fast-forward the round counter to it.
        std::uint64_t next = static_cast<std::uint64_t>(-1);
        if (!future_.empty()) next = future_.begin()->first;
        if (!wake_schedule_.empty()) {
          next = std::min(next, wake_schedule_.begin()->first);
        }
        if (pending_faults) {
          next = std::min(next, fault_events_[next_fault_event_].round);
        }
        round_ = next;
        stats_.rounds = round_;
        continue;
      }
      if (!protocol_.on_quiescent(*this)) break;
      if (active_.empty() && busy_edges_.empty() && future_.empty() &&
          wake_schedule_.empty()) {
        break;
      }
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
      if (!in_active_list_[u]) {
        in_active_list_[u] = 1;
        active_.push_back(u);
        touched = true;
      }
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
  if (emptied) {
    // Keep the nonempty invariant of busy_edges_ intact.
    std::vector<std::size_t> still_busy;
    still_busy.reserve(busy_edges_.size());
    for (const std::size_t h : busy_edges_) {
      if (!outbox_[h].empty()) {
        still_busy.push_back(h);
      } else {
        edge_busy_flag_[h] = 0;
      }
    }
    busy_edges_.swap(still_busy);
  }
}

void Simulator::flush_future() {
  bool touched = false;
  const auto wit = wake_schedule_.find(round_);
  if (wit != wake_schedule_.end()) {
    // Move out first: deferring a wake for a down node inserts into the
    // map we are erasing from.
    const std::vector<NodeId> woken = std::move(wit->second);
    wake_schedule_.erase(wit);
    for (const NodeId u : woken) {
      if (faults_ != nullptr && down_[u]) {
        // The node sleeps through its timer; fire it at restart instead.
        wake_schedule_[restart_round_[u]].push_back(u);
        continue;
      }
      if (!in_active_list_[u]) {
        in_active_list_[u] = 1;
        active_.push_back(u);
        touched = true;
      }
    }
  }
  const auto it = future_.find(round_);
  if (it != future_.end()) {
    for (PendingDelivery& d : it->second) {
      if (faults_ != nullptr && down_[d.to]) {
        ++stats_.dropped;  // delivered into a crashed node
        continue;
      }
      if (!in_active_list_[d.to]) {
        in_active_list_[d.to] = 1;
        active_.push_back(d.to);
      }
      inbox_[d.to].push_back(Inbound{d.to_local, d.msg});
      touched = true;
    }
    future_.erase(it);
  }
  if (touched) std::sort(active_.begin(), active_.end());
  if (cfg_.async_max_delay > 1) {
    // Canonical per-round inbox order: by arrival edge (stable so queued
    // order on an edge is preserved). Asynchronous delivery appends in
    // transmission order; synchronous receiver-pull delivery builds
    // inboxes already canonical, so this pass is skipped then.
    for (const NodeId u : active_) {
      std::stable_sort(inbox_[u].begin(), inbox_[u].end(),
                       [](const Inbound& a, const Inbound& b) {
                         return a.local_edge < b.local_edge;
                       });
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
  auto step_one = [this](std::size_t idx) {
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
  };
  if (cfg_.threads == 1 || active_.size() < 64) {
    for (std::size_t i = 0; i < active_.size(); ++i) step_one(i);
  } else {
    pool()->for_each_dynamic(
        active_.size(),
        [&step_one](std::size_t /*lane*/, std::size_t i) { step_one(i); });
  }
}

void Simulator::splice_new_work() {
  // Fold node-owned scratch produced by the (possibly parallel) step into
  // the shared schedules, in sorted active-node order so busy_edges_ and
  // wake_schedule_ contents are independent of thread count.
  for (const NodeId u : active_) {
    for (const std::uint32_t local : dirty_local_[u]) {
      const std::size_t h = graph_.half_edge_index(u, local);
      if (!edge_busy_flag_[h]) {
        edge_busy_flag_[h] = 1;
        busy_edges_.push_back(h);
      }
    }
    dirty_local_[u].clear();
    if (!wake_at_scratch_[u].empty()) {
      for (const std::uint64_t at : wake_at_scratch_[u]) {
        wake_schedule_[at].push_back(u);
      }
      wake_at_scratch_[u].clear();
    }
  }
}

void Simulator::deliver() {
  std::vector<NodeId> next_active;
  // Wakes requested by nodes stepped this round.
  for (const NodeId u : active_) {
    if (wake_flag_[u]) {
      wake_flag_[u] = 0;
      next_active.push_back(u);
    }
  }
  if (cfg_.async_max_delay > 1) {
    deliver_serial(next_active);
  } else {
    deliver_parallel(next_active);
  }

  // De-duplicate and order the next active set.
  std::sort(next_active.begin(), next_active.end());
  next_active.erase(std::unique(next_active.begin(), next_active.end()),
                    next_active.end());
  for (const NodeId u : active_) in_active_list_[u] = 0;
  for (const NodeId u : next_active) in_active_list_[u] = 1;
  active_.swap(next_active);
}

void Simulator::deliver_serial(std::vector<NodeId>& next_active) {
  // Asynchronous-mode delivery: one message per busy half-edge (or the
  // whole queue when the capacity ablation is on), each with an arrival
  // round drawn uniformly from [round+1, round+async_max_delay]. Serial so
  // the delay RNG consumes draws in transmission order; inboxes are
  // canonicalized by the sort in flush_future.
  std::vector<std::size_t> still_busy;
  still_busy.reserve(busy_edges_.size());
  for (const std::size_t h : busy_edges_) {
    auto& box = outbox_[h];
    DS_CHECK(!box.empty());
    if (box.size() > stats_.max_outbox) stats_.max_outbox = box.size();
    const NodeId to = head_[h];
    const std::uint32_t to_local = head_local_[h];
    std::size_t ship = cfg_.enforce_capacity ? 1 : box.size();
    while (ship-- > 0) {
      const Message m = box.front();
      box.pop();
      stats_.messages += 1;
      stats_.words += m.size_words();
      // Draw the delay before any fault decision so the RNG stream stays
      // aligned with transmission order regardless of the fault plan.
      const std::uint64_t arrival =
          round_ + 1 + delay_rng_.below(cfg_.async_max_delay);
      if (faults_ != nullptr) {
        const std::uint64_t seq = send_seq_[h]++;
        if (faults_->drop_transmission(h, seq, round_)) {
          ++stats_.dropped;
          continue;
        }
        if (faults_->duplicate_transmission(h, seq)) {
          ++stats_.duplicated;
          future_[arrival + 1].push_back(PendingDelivery{to, to_local, m});
        }
      }
      if (arrival == round_ + 1) {
        if (inbox_[to].empty()) next_active.push_back(to);
        inbox_[to].push_back(Inbound{to_local, m});
      } else {
        future_[arrival].push_back(PendingDelivery{to, to_local, m});
      }
    }
    if (!box.empty()) {
      still_busy.push_back(h);
    } else {
      edge_busy_flag_[h] = 0;
    }
  }
  busy_edges_.swap(still_busy);
}

void Simulator::deliver_parallel(std::vector<NodeId>& next_active) {
  // Synchronous receiver-pull delivery. Each busy half-edge is marked at
  // its receiver-side slot (v, l); each receiver then drains its marked
  // slots in local-edge order. Every half-edge has exactly one receiver, so
  // the pulls are data-race-free and parallelize over receivers, and each
  // inbox comes out already in canonical (local_edge, FIFO) order.
  ready_.clear();
  for (const std::size_t h : busy_edges_) {
    const NodeId to = head_[h];
    inbound_busy_[graph_.half_edge_index(to, head_local_[h])] = 1;
    if (!ready_flag_[to]) {
      ready_flag_[to] = 1;
      ready_.push_back(to);
    }
  }
  std::sort(ready_.begin(), ready_.end());

  deltas_.assign(ready_.size(), ReceiverDelta{});
  auto pull_one = [this](std::size_t i) {
    const NodeId to = ready_[i];
    const std::size_t base = graph_.half_edge_index(to, 0);
    const auto deg = static_cast<std::uint32_t>(graph_.degree(to));
    ReceiverDelta& delta = deltas_[i];
    auto& in = inbox_[to];
    for (std::uint32_t to_local = 0; to_local < deg; ++to_local) {
      const std::size_t r = base + to_local;
      if (!inbound_busy_[r]) continue;
      inbound_busy_[r] = 0;
      // The twin of the receiver-side slot is the sending half-edge.
      const std::size_t h = graph_.half_edge_index(head_[r], head_local_[r]);
      auto& box = outbox_[h];
      if (box.size() > delta.max_depth) delta.max_depth = box.size();
      std::size_t ship = cfg_.enforce_capacity ? 1 : box.size();
      delta.messages += ship;
      while (ship-- > 0) {
        const Message& m = box.front();
        delta.words += m.size_words();
        if (faults_ != nullptr) {
          // (edge, seq) keys every fault decision: each half-edge is
          // pulled by exactly one lane, so the counters are race-free
          // and the outcome is independent of lane scheduling.
          const std::uint64_t seq = send_seq_[h]++;
          if (faults_->drop_transmission(h, seq, round_)) {
            ++delta.dropped;
            box.pop();
            continue;
          }
          if (faults_->duplicate_transmission(h, seq)) {
            ++delta.duplicated;
            delta.dups.push_back(PendingDelivery{to, to_local, m});
          }
        }
        ++delta.delivered;
        in.push_back(Inbound{to_local, m});
        box.pop();
      }
    }
  };
  if (cfg_.threads == 1 || ready_.size() < 64) {
    for (std::size_t i = 0; i < ready_.size(); ++i) pull_one(i);
  } else {
    pool()->for_each_dynamic(
        ready_.size(),
        [&pull_one](std::size_t /*lane*/, std::size_t i) { pull_one(i); });
  }

  // Serial reduction in receiver order. Without faults every receiver got
  // >= 1 message; with faults a receiver whose entire pull was dropped is
  // not woken (a lost message never arrives). Duplicate copies are folded
  // into the future wheel here, in receiver order, so their arrival order
  // is thread-count independent.
  for (std::size_t i = 0; i < ready_.size(); ++i) {
    ReceiverDelta& delta = deltas_[i];
    stats_.messages += delta.messages;
    stats_.words += delta.words;
    stats_.dropped += delta.dropped;
    stats_.duplicated += delta.duplicated;
    if (delta.max_depth > stats_.max_outbox) {
      stats_.max_outbox = delta.max_depth;
    }
    if (!delta.dups.empty()) {
      auto& slot = future_[round_ + 2];
      for (PendingDelivery& d : delta.dups) slot.push_back(std::move(d));
    }
    if (delta.delivered > 0 || faults_ == nullptr) {
      next_active.push_back(ready_[i]);
    }
    ready_flag_[ready_[i]] = 0;
  }

  // Retire drained edges, keeping the busy list in its previous order.
  std::vector<std::size_t> still_busy;
  still_busy.reserve(busy_edges_.size());
  for (const std::size_t h : busy_edges_) {
    if (!outbox_[h].empty()) {
      still_busy.push_back(h);
    } else {
      edge_busy_flag_[h] = 0;
    }
  }
  busy_edges_.swap(still_busy);
}

}  // namespace dsketch
