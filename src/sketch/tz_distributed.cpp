#include "sketch/tz_distributed.hpp"

#include <algorithm>
#include <cmath>

#include "graph/shortest_paths.hpp"

#include "congest/bfs_tree.hpp"
#include "congest/echo_termination.hpp"
#include "congest/fault_plan.hpp"
#include "congest/protocol.hpp"
#include "congest/reliable.hpp"
#include "util/assert.hpp"
#include "util/fifo.hpp"
#include "util/flat_map.hpp"
#include "util/thread_pool.hpp"

namespace dsketch {
namespace {

// Message layouts (word 0 is the tag):
//   DATA:     <kData, phase, source, dist>
//   ECHO:     <kEcho, phase, source, value-as-received>
//   START:    <kStart, phase>            (tree edges, parent -> children)
//   COMPLETE: <kComplete, phase>         (tree edges, child -> parent)
constexpr Word kData = 1;
constexpr Word kEchoTag = 2;
constexpr Word kStart = 3;
constexpr Word kComplete = 4;

constexpr int kPreStart = -2;  // sentinel: node not yet in any phase

class TzProtocol : public Protocol {
 public:
  TzProtocol(const Graph& g, const Hierarchy& h, TerminationMode mode,
             const BfsTree* tree, bool eager_send, std::uint64_t phase_len,
             const TzFaultTolerance& ft = {})
      : graph_(g), hier_(h), mode_(mode), tree_(tree),
        eager_send_(eager_send), phase_len_(phase_len),
        reliable_(ft.enabled) {
    const NodeId n = g.num_nodes();
    const std::uint32_t k = h.k();
    nodes_.resize(n);
    for (NodeId u = 0; u < n; ++u) {
      nodes_[u].pivot.assign(k + 1, DistKey{});
      nodes_[u].phase = static_cast<int>(k);  // "above" the top phase
    }
    global_phase_ = static_cast<int>(k) - 1;
    if (reliable_) {
      const ReliableConfig rc{ft.rto};
      rel_.reserve(n);
      for (NodeId u = 0; u < n; ++u) {
        rel_.emplace_back(static_cast<std::uint32_t>(g.degree(u)), rc);
      }
    }
  }

  void on_start(NodeCtx& ctx) override {
    start_impl(ctx);
    if (reliable_) rel_[ctx.node()].maintain(ctx);
  }

  void start_impl(NodeCtx& ctx) {
    const NodeId u = ctx.node();
    if (mode_ == TerminationMode::kOracle) {
      // Oracle mode re-activates everyone per phase; advance to the current
      // global phase and (re)announce if this node sources it.
      advance_to(ctx, global_phase_);
      pump(ctx);
      return;
    }
    if (mode_ == TerminationMode::kKnownS) {
      // Every node starts phase k-1 together at round 0 and will advance at
      // the shared analytic deadlines (scheduled by init_phase).
      advance_to(ctx, static_cast<int>(hier_.k()) - 1);
      pump(ctx);
      return;
    }
    // Echo mode: only roots act spontaneously; everyone else waits for
    // START or early data. On a disconnected graph each component root
    // drives its own phase cascade independently.
    if (tree_->is_root(u)) {
      advance_to(ctx, static_cast<int>(hier_.k()) - 1);
      forward_start(ctx, static_cast<int>(hier_.k()) - 1);
      pump(ctx);
    }
  }

  void on_round(NodeCtx& ctx) override {
    if (mode_ == TerminationMode::kKnownS) {
      // Advance past any phase whose deadline has arrived, before looking
      // at new messages (which then belong to the fresh phase).
      NodeState& s = nodes_[ctx.node()];
      while (s.phase != kPreStart && s.phase >= 0 &&
             s.phase < static_cast<int>(hier_.k()) &&
             ctx.round() >= deadline(s.phase)) {
        advance_to(ctx, s.phase - 1);
      }
    }
    if (reliable_) {
      // Raw frames pass through the reliable channel first; dispatch sees
      // the same exactly-once in-order stream a fault-free run would.
      const auto& delivered = rel_[ctx.node()].receive(ctx, ctx.inbox());
      for (const Inbound& in : delivered) dispatch(ctx, in);
    } else {
      for (const Inbound& in : ctx.inbox()) dispatch(ctx, in);
    }
    pump(ctx);
    if (reliable_) rel_[ctx.node()].maintain(ctx);
  }

  void on_restart(NodeCtx& ctx) override {
    // The crash discarded our queued outboxes; resend everything unacked,
    // then resume as a normal round (the retry timers were deferred to
    // this round by the simulator).
    if (reliable_) rel_[ctx.node()].restart(ctx);
    on_round(ctx);
  }

  /// Round by which phase p must have converged (kKnownS). Phases run
  /// k-1, k-2, ..., 0 back to back, phase_len_ rounds each.
  std::uint64_t deadline(int p) const {
    return (static_cast<std::uint64_t>(hier_.k()) -
            static_cast<std::uint64_t>(p)) *
           phase_len_;
  }

  bool on_quiescent(Simulator& sim) override {
    // Echo: the root drives phases; KnownS: deadlines drive them.
    if (mode_ != TerminationMode::kOracle) return false;
    // Oracle: the silent network means the current phase converged.
    phase_end_rounds_.push_back(sim.round());
    if (global_phase_ == 0) {
      finalize_all();
      return false;
    }
    --global_phase_;
    sim.activate_all();
    return true;
  }

  /// True once every node has run through all k phases. A faulty run can
  /// stall short of this without hitting the round limit (a lost message
  /// leaves the network permanently quiescent), so the driver checks this
  /// before extracting labels.
  bool all_finished() const {
    for (const NodeState& s : nodes_) {
      if (s.phase != kPreStart) return false;
    }
    return true;
  }

  /// Packs every node's label straight from its state: pivots 0..k-1 and
  /// its bunch, sorted in place.
  LabelArena take_labels() {
    const std::uint32_t k = hier_.k();
    for (NodeState& s : nodes_) {
      DS_CHECK_MSG(s.phase == kPreStart, "node did not finish all phases");
      sort_bunch(s.bunch);
    }
    ThreadPool calling_thread(1);  // no worker threads
    return LabelArena::pack(
        static_cast<NodeId>(nodes_.size()), k,
        [&](NodeId u) {
          const NodeState& s = nodes_[u];
          return LabelParts{{s.pivot.data(), k}, s.bunch};
        },
        calling_thread);
  }

  /// Network-wide end round of each phase, in execution order (k-1 first).
  /// Echo mode records ends per component root; the network-wide end of a
  /// phase is the max across components.
  std::vector<std::uint64_t> phase_end_rounds() const {
    if (mode_ != TerminationMode::kEcho) return phase_end_rounds_;
    std::vector<std::uint64_t> out;
    for (const NodeState& s : nodes_) {
      if (s.root_phase_ends.empty()) continue;
      if (out.size() < s.root_phase_ends.size()) {
        out.resize(s.root_phase_ends.size(), 0);
      }
      for (std::size_t i = 0; i < s.root_phase_ends.size(); ++i) {
        out[i] = std::max(out[i], s.root_phase_ends[i]);
      }
    }
    return out;
  }

 private:
  struct SourceState {
    Dist dist;    // best distance to the source so far
    bool queued;  // waiting in `pending`
  };

  struct NodeState {
    int phase;  // current phase index; k = above top; kPreStart = finished
    std::vector<DistKey> pivot;  // pivot[i] valid once phase i finalized;
                                 // pivot[k] = infinite key
    std::vector<BunchEntry> bunch;

    // Phase-local Bellman-Ford state: one entry per source that passed
    // the gate, cleared (capacity kept) at the end of every phase.
    FlatMap<NodeId, SourceState> sources;
    Fifo<NodeId> pending;  // sources waiting to be broadcast, in order

    // Echo-mode machinery.
    EchoTracker echo;
    CompletionTracker completion;
    std::uint32_t early_child_completes = 0;  // banked for the next phase
    int last_forwarded_start = 1 << 30;
    // At a component root: round each phase completed, in execution order
    // (k-1 first). Node-owned so roots of different components can fire in
    // the same (parallel) step without sharing a vector.
    std::vector<std::uint64_t> root_phase_ends;
  };

  bool is_source(NodeId u, int phase) const {
    return hier_.level_of(u) == static_cast<std::uint32_t>(phase) + 1;
  }

  void dispatch(NodeCtx& ctx, const Inbound& in) {
    const Word tag = in.msg.at(0);
    switch (tag) {
      case kData:
        handle_data(ctx, in);
        break;
      case kEchoTag:
        handle_echo(ctx, in);
        break;
      case kStart: {
        const int p = static_cast<int>(static_cast<std::int64_t>(in.msg.at(1)));
        forward_start(ctx, p);
        advance_to(ctx, p);
        break;
      }
      case kComplete:
        handle_complete(ctx, in);
        break;
      default:
        DS_CHECK_MSG(false, "unknown message tag");
    }
  }

  void handle_data(NodeCtx& ctx, const Inbound& in) {
    const NodeId u = ctx.node();
    const int p = static_cast<int>(in.msg.at(1));
    const NodeId src = static_cast<NodeId>(in.msg.at(2));
    const Dist a = in.msg.at(3);
    NodeState& s = nodes_[u];
    if (s.phase > p) {
      // Data can race at most one phase ahead of our START (see header).
      DS_CHECK_MSG(s.phase - p <= 1, "data skipped a phase");
      advance_to(ctx, p);
    }
    DS_CHECK_MSG(s.phase == p, "stale data message");
    const Dist cand = a + ctx.edge_weight(in.local_edge);
    const DistKey& gate = s.pivot[static_cast<std::size_t>(p) + 1];
    if (DistKey{cand, src} < gate) {
      const auto [st, fresh] = s.sources.try_emplace(src);
      if (fresh || cand < st->dist) {
        st->dist = cand;
        if (!st->queued) {
          st->queued = true;
          s.pending.push(src);
        }
        if (mode_ == TerminationMode::kEcho) {
          if (auto old = s.echo.accept_trigger(src, in.local_edge, a)) {
            send_echo(ctx, p, src, *old);
          }
        }
        return;
      }
    }
    if (mode_ == TerminationMode::kEcho) {
      send_echo(ctx, p, src, EchoObligation{in.local_edge, a});
    }
  }

  void handle_echo(NodeCtx& ctx, const Inbound& in) {
    const NodeId u = ctx.node();
    const int p = static_cast<int>(in.msg.at(1));
    const NodeId src = static_cast<NodeId>(in.msg.at(2));
    const Dist value = in.msg.at(3);
    NodeState& s = nodes_[u];
    DS_CHECK_MSG(s.phase == p, "echo for a non-current phase");
    if (auto upstream = s.echo.on_echo(src, value)) {
      send_echo(ctx, p, src, *upstream);
    } else if (s.echo.self_announce_complete() && is_source(u, p)) {
      if (s.completion.on_self_complete()) fire_complete(ctx, p);
    }
  }

  void handle_complete(NodeCtx& ctx, const Inbound& in) {
    const int p = static_cast<int>(in.msg.at(1));
    NodeState& s = nodes_[ctx.node()];
    if (s.phase != p) {
      // A child that advanced lazily through an early data message can
      // COMPLETE phase p before our own START(p) arrives. The gap is at
      // most one phase (data for p only exists once phase p+1 finished
      // globally, which required our COMPLETE(p+1)); bank it for init.
      DS_CHECK_MSG(s.phase - p == 1, "COMPLETE skipped a phase");
      ++s.early_child_completes;
      return;
    }
    if (s.completion.on_child_complete()) fire_complete(ctx, p);
  }

  // All protocol traffic funnels through these two so the reliable layer
  // (when enabled) can wrap every frame.
  void send_on(NodeCtx& ctx, std::uint32_t edge, const Message& m) {
    if (reliable_) {
      rel_[ctx.node()].send(ctx, edge, m);
    } else {
      ctx.send(edge, m);
    }
  }
  void broadcast_msg(NodeCtx& ctx, const Message& m) {
    if (!reliable_) {
      ctx.broadcast(m);
      return;
    }
    const std::uint32_t deg = ctx.degree();
    for (std::uint32_t e = 0; e < deg; ++e) rel_[ctx.node()].send(ctx, e, m);
  }

  void send_echo(NodeCtx& ctx, int phase, NodeId src,
                 const EchoObligation& ob) {
    send_on(ctx, ob.edge, Message{kEchoTag, static_cast<Word>(phase), src,
                                  static_cast<Word>(ob.value)});
  }

  void forward_start(NodeCtx& ctx, int p) {
    NodeState& s = nodes_[ctx.node()];
    if (s.last_forwarded_start <= p) return;
    s.last_forwarded_start = p;
    for (const std::uint32_t e : tree_->child_edges[ctx.node()]) {
      send_on(ctx, e, Message{kStart, static_cast<Word>(p)});
    }
  }

  /// The node (and, at a root, its whole component) finished phase p.
  void fire_complete(NodeCtx& ctx, int p) {
    const NodeId u = ctx.node();
    NodeState& s = nodes_[u];
    s.completion.mark_fired();
    if (!tree_->is_root(u)) {
      send_on(ctx, tree_->parent_edge[u],
              Message{kComplete, static_cast<Word>(p)});
      return;
    }
    s.root_phase_ends.push_back(ctx.round());
    const int next = p - 1;
    advance_to(ctx, next);  // next == -1 finalizes the root entirely
    forward_start(ctx, next);
  }

  /// Finalizes phases above `target` and initializes phase `target`.
  /// target == -1 finalizes everything (protocol finished at this node).
  void advance_to(NodeCtx& ctx, int target) {
    NodeState& s = nodes_[ctx.node()];
    if (s.phase == kPreStart) return;
    while (s.phase > target) {
      if (s.phase < static_cast<int>(hier_.k())) finalize_phase(ctx.node());
      --s.phase;
      if (s.phase >= 0 && s.phase == target) init_phase(ctx, s.phase);
    }
    if (target < 0) s.phase = kPreStart;
  }

  void finalize_phase(NodeId u) {
    NodeState& s = nodes_[u];
    const std::uint32_t p = static_cast<std::uint32_t>(s.phase);
    // Table order is arbitrary: sort_bunch fixes the bunch order and the
    // pivot is the minimum key.
    DistKey best = s.pivot[p + 1];
    s.sources.for_each([&](NodeId v, const SourceState& st) {
      s.bunch.push_back(BunchEntry{v, st.dist});
      const DistKey key{st.dist, v};
      if (key < best) best = key;
    });
    if (hier_.level_of(u) > p) {
      const DistKey own{0, u};
      if (own < best) best = own;
    }
    s.pivot[p] = best;
    s.sources.clear();
    s.pending.clear();
    DS_CHECK(!s.echo.has_outstanding());
    s.echo.clear();
  }

  void init_phase(NodeCtx& ctx, int p) {
    const NodeId u = ctx.node();
    NodeState& s = nodes_[u];
    const bool source = is_source(u, p);
    if (source) {
      // The source's own announcement passes through the same gate.
      const DistKey own{0, u};
      if (own < s.pivot[static_cast<std::size_t>(p) + 1]) {
        s.sources[u] = SourceState{0, true};
        s.pending.push(u);
      }
    }
    if (mode_ == TerminationMode::kEcho) {
      const auto children =
          static_cast<std::uint32_t>(tree_->child_edges[u].size());
      // A source with a live announcement is incomplete until it echoes out;
      // a source whose announcement failed its own gate never broadcasts and
      // is complete immediately, like any non-source.
      const bool self_complete = !source || s.pending.empty();
      s.completion.reset(children, self_complete);
      // Apply COMPLETEs that raced ahead of our START for this phase.
      bool ready = self_complete && children == 0;
      const std::uint32_t banked = s.early_child_completes;
      s.early_child_completes = 0;
      for (std::uint32_t i = 0; i < banked; ++i) {
        ready = s.completion.on_child_complete() || ready;
      }
      if (ready) fire_complete(ctx, p);
    }
    if (mode_ == TerminationMode::kKnownS) ctx.wake_at(deadline(p));
    ctx.wake();
  }

  /// Round-robin send: broadcast the head of the pending queue (Algorithm
  /// 2's one-message-per-round multiplexing), or the whole queue when the
  /// eager-send ablation is on.
  void pump(NodeCtx& ctx) {
    const NodeId u = ctx.node();
    NodeState& s = nodes_[u];
    if (s.phase < 0 || s.phase >= static_cast<int>(hier_.k())) return;
    while (!s.pending.empty()) {
      const NodeId src = s.pending.front();
      s.pending.pop();
      SourceState* st = s.sources.find(src);
      DS_CHECK(st != nullptr);
      st->queued = false;
      const Dist d = st->dist;
      broadcast_msg(ctx, Message{kData, static_cast<Word>(s.phase), src,
                                 static_cast<Word>(d)});
      if (mode_ == TerminationMode::kEcho) {
        s.echo.commit_send(src, d, ctx.degree(), /*self_announce=*/src == u);
        // A degree-zero source has no cascade: its record completes inside
        // commit_send and no echo will ever arrive to observe it, so the
        // completion check must happen here. (Idempotent for everyone
        // else — on_self_complete only reports ready once, pre-fire.)
        if (s.echo.self_announce_complete() &&
            s.completion.on_self_complete()) {
          fire_complete(ctx, s.phase);
        }
      }
      if (!eager_send_) break;
    }
    if (!s.pending.empty()) ctx.wake();
  }

  void finalize_all() {
    for (NodeId u = 0; u < nodes_.size(); ++u) {
      NodeState& s = nodes_[u];
      while (s.phase >= 0) {
        if (s.phase < static_cast<int>(hier_.k())) finalize_phase(u);
        --s.phase;
      }
      s.phase = kPreStart;
    }
  }

 public:
  std::uint64_t total_retransmits() const {
    std::uint64_t sum = 0;
    for (const ReliableChannel& c : rel_) sum += c.retransmits();
    return sum;
  }
  std::uint64_t total_redundant_discards() const {
    std::uint64_t sum = 0;
    for (const ReliableChannel& c : rel_) sum += c.redundant_discards();
    return sum;
  }

 private:
  const Graph& graph_;
  const Hierarchy& hier_;
  TerminationMode mode_;
  const BfsTree* tree_;
  bool eager_send_;
  std::uint64_t phase_len_;  // kKnownS deadline spacing
  bool reliable_;
  std::vector<ReliableChannel> rel_;  // per node, when reliable_
  std::vector<NodeState> nodes_;
  int global_phase_;  // oracle mode
  std::vector<std::uint64_t> phase_end_rounds_;
};

}  // namespace

TzDistributedResult build_tz_distributed(const Graph& g,
                                         const Hierarchy& hierarchy,
                                         TerminationMode mode, SimConfig cfg,
                                         bool eager_send,
                                         std::uint32_t known_S,
                                         TzFaultTolerance fault_tolerance) {
  TzDistributedResult result;
  BfsTree tree;
  if (mode == TerminationMode::kEcho) {
    // Leader election / tree building always runs fault-free: the tree is
    // static data the (possibly faulty) main run navigates by.
    SimConfig tree_cfg = cfg;
    tree_cfg.faults = nullptr;
    BfsTreeRun run = build_bfs_tree(g, tree_cfg);
    tree = std::move(run.tree);
    result.tree_stats = run.stats;
  }
  if (fault_tolerance.enabled) {
    // Reliable frames carry one extra header word on top of the widest
    // protocol message (DATA/ECHO = 4 words).
    cfg.max_message_words = std::max<std::size_t>(cfg.max_message_words, 5);
  }
  std::uint64_t phase_len = 0;
  if (mode == TerminationMode::kKnownS) {
    const std::uint64_t S =
        known_S != 0 ? known_S : shortest_path_diameter(g);
    // Lemma 3.7 budget: whp at most 3 n^{1/k} ln n sources multiplex each
    // node's queue, over <= S hops; pad with a safety margin.
    const double n = static_cast<double>(g.num_nodes());
    const double per_hop =
        3.0 * std::pow(n, 1.0 / hierarchy.k()) * std::log(n);
    phase_len = static_cast<std::uint64_t>(per_hop * static_cast<double>(S)) +
                2 * S + 16;
  }
  TzProtocol protocol(g, hierarchy, mode,
                      mode == TerminationMode::kEcho ? &tree : nullptr,
                      eager_send, phase_len, fault_tolerance);
  if (cfg.phase.empty()) cfg.phase = "tz_construction";
  // A temporary: the simulator's queues are freed before the labels pack.
  result.stats = Simulator(g, protocol, cfg).run();
  result.retransmits = protocol.total_retransmits();
  result.duplicate_discards = protocol.total_redundant_discards();
  if (cfg.faults != nullptr &&
      (result.stats.hit_round_limit || !protocol.all_finished())) {
    // A faulty run either exhausted its round budget or went permanently
    // quiescent mid-build (e.g. faults injected without fault tolerance:
    // a lost ECHO stalls termination with no messages left in flight).
    // Report the failure rather than asserting so benches can measure
    // completion rates.
    result.completed = false;
    return result;
  }
  DS_CHECK_MSG(!result.stats.hit_round_limit,
               "TZ construction exceeded the round budget");
  result.labels = protocol.take_labels();
  result.phase_end_rounds = protocol.phase_end_rounds();
  if (mode == TerminationMode::kKnownS) {
    result.phase_end_rounds.clear();
    for (std::uint32_t p = 0; p < hierarchy.k(); ++p) {
      result.phase_end_rounds.push_back((p + 1) * phase_len);
    }
  }
  return result;
}

}  // namespace dsketch
