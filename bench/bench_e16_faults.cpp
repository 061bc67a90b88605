// E16 — fault injection and recovery, end to end. Sweeps a grid of
// message-loss rate × crash count over seeded FaultPlans and drives the
// fault-tolerant in-network TZ build (reliable link layer + echo
// termination) through each cell, reporting completion rate, the
// round/message overhead the recovery machinery pays relative to a
// fault-free build, Theorem 1.1 bound ratios (the padded known-S round
// bound and the whp Lemma 3.1 message bound must hold even while
// retransmitting), and label correctness — every completed cell must be
// byte-identical to the centralized construction.
//
// The second half is the serving-tier drill: the labels from a lossy cell
// are packed into a SketchStore and served through the sharded
// QueryService; then the primary oracle is poisoned (every query throws)
// and the service must fail over to the previous generation with zero
// incorrect answers — the degraded-mode acceptance bar.
//
// Flags: --n (default 512 ER with avg degree 6), --k (2), --sim-threads
// (0 = all hardware threads), --queries (2000), --seed (16).
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "congest/fault_plan.hpp"
#include "core/oracle.hpp"
#include "dynamics/incremental.hpp"
#include "serve/query_service.hpp"
#include "serve/sketch_store.hpp"
#include "sketch/tz_centralized.hpp"
#include "sketch/tz_distributed.hpp"
#include "util/rng.hpp"

namespace dsketch::bench {
namespace {

/// A primary oracle gone bad: every query throws. Swapped in so that every
/// slice's batch call throws and the bench can measure the failover path
/// (previous-generation answers, zero incorrect results).
class PoisonedOracle final : public DistanceOracle {
 public:
  explicit PoisonedOracle(NodeId n) : n_(n) {}
  Dist query(NodeId, NodeId) const override {
    throw std::runtime_error("poisoned oracle");
  }
  NodeId num_nodes() const override { return n_; }
  std::size_t size_words(NodeId) const override { return 0; }
  std::string scheme() const override { return "poisoned"; }
  std::string guarantee() const override { return "none (always fails)"; }
  Capabilities capabilities() const override { return {}; }

 private:
  NodeId n_;
};

}  // namespace

int run_e16(const FlagSet& flags, std::ostream& out) {
  const Graph g = primary_graph(flags, 512, 6.0 / 512, {1, 5}, 16);
  const auto k = static_cast<std::uint32_t>(flags.get("k", std::int64_t{2}));
  const auto sim_threads =
      static_cast<unsigned>(flags.get("sim-threads", std::int64_t{0}));
  const auto num_queries =
      static_cast<std::size_t>(flags.get("queries", std::int64_t{2000}));
  const auto seed =
      static_cast<std::uint64_t>(flags.get("seed", std::int64_t{16}));

  const NodeId n = g.num_nodes();
  const auto m = static_cast<double>(g.num_edges());
  const std::uint32_t S = sp_diameter_auto(g, 8, 3);
  const Hierarchy h = Hierarchy::sample(n, k, seed + 3);
  const LabelArena central = build_tz_centralized(g, h);

  TzFaultTolerance ft;
  ft.enabled = true;
  ft.rto = 8;

  // Fault-free baseline with the reliable layer on: the overhead
  // denominator, so the grid isolates what the *faults* cost on top of
  // the tolerance machinery itself.
  SimConfig base_cfg;
  base_cfg.threads = sim_threads;
  const TzDistributedResult baseline =
      build_tz_distributed(g, h, TerminationMode::kEcho, base_cfg, false, 0,
                           ft);
  const auto base_rounds = static_cast<double>(baseline.total_rounds());
  const auto base_messages = static_cast<double>(baseline.total_messages());

  const double nk = std::pow(static_cast<double>(n), 1.0 / k);
  const double ln_n = std::log(static_cast<double>(n));
  const double round_bound = k * (3.0 * nk * ln_n * S + 2.0 * S + 16.0);
  const double message_bound = 2.0 * m * k * 4.0 * nk * ln_n;

  // --- loss × crash grid -------------------------------------------------
  const double drops[] = {0.0, 0.01, 0.05, 0.10};
  const std::uint32_t crash_counts[] = {0, 2, 4};
  std::uint64_t cells = 0, completed_cells = 0, mismatched_cells = 0;
  bool ratios_below_one = true;
  LabelArena lossy_labels;  // labels from the acceptance cell
  for (const double drop : drops) {
    for (const std::uint32_t crashes : crash_counts) {
      FaultConfig fc;
      fc.drop_rate = drop;
      fc.duplicate_rate = drop / 2.0;
      fc.reorder_rate = 0.05;
      fc.node_crashes = crashes;
      fc.crash_horizon = 60;
      fc.crash_downtime = 12;
      fc.seed = seed * 1000003 + cells;
      const FaultPlan plan(g, fc);
      SimConfig cfg;
      cfg.threads = sim_threads;
      cfg.faults = &plan;
      const TzDistributedResult r = build_tz_distributed(
          g, h, TerminationMode::kEcho, cfg, false, 0, ft);
      ++cells;
      std::uint64_t label_mismatches = 0;
      if (r.completed) {
        ++completed_cells;
        for (NodeId u = 0; u < n; ++u) {
          if (!(r.labels.view(u) == central.view(u))) ++label_mismatches;
        }
        if (label_mismatches != 0) ++mismatched_cells;
        if (drop == 0.05 && crashes == 2) lossy_labels = r.labels;
      }
      SimStats combined = r.tree_stats;
      combined += r.stats;
      const auto rounds = static_cast<double>(r.total_rounds());
      const auto messages = static_cast<double>(r.total_messages());
      ratios_below_one = ratios_below_one && rounds < round_bound &&
                         messages < message_bound;
      row("e16", "grid")
          .add("n", static_cast<std::uint64_t>(n))
          .add("drop_rate", drop)
          .add("duplicate_rate", fc.duplicate_rate)
          .add("crashes", crashes)
          .add("fault_seed", fc.seed)
          .add("completed", r.completed)
          .add("rounds", r.total_rounds())
          .add("messages", r.total_messages())
          .add("dropped", combined.dropped)
          .add("duplicated", combined.duplicated)
          .add("retransmits", r.retransmits)
          .add("duplicate_discards", r.duplicate_discards)
          .add("round_overhead", rounds / base_rounds)
          .add("message_overhead", messages / base_messages)
          .add("round_ratio", rounds / round_bound)
          .add("message_ratio", messages / message_bound)
          .add("label_mismatches", label_mismatches)
          .emit(out);
    }
  }
  row("e16", "completion")
      .add("cells", cells)
      .add("completed_cells", completed_cells)
      .add("mismatched_cells", mismatched_cells)
      .add("completion_rate",
           static_cast<double>(completed_cells) / static_cast<double>(cells))
      .emit(out);

  // --- degraded-mode serving drill --------------------------------------
  // Pack the acceptance cell's labels (5% loss + 2 crashes) and serve;
  // every answer must match a tz_query over the centralized labels.
  if (lossy_labels.empty()) lossy_labels = baseline.labels;
  const TzLabelOracle oracle(lossy_labels, k);
  const SketchStore store = SketchStore::from_oracle(oracle);

  QueryServiceConfig qcfg;
  qcfg.shards = 4;
  qcfg.threads = sim_threads;
  QueryService service(store, qcfg);

  Rng rng(seed * 131 + 7);
  std::vector<QueryService::Pair> pairs;
  pairs.reserve(num_queries);
  for (std::size_t i = 0; i < num_queries; ++i) {
    pairs.emplace_back(static_cast<NodeId>(rng.below(n)),
                       static_cast<NodeId>(rng.below(n)));
  }
  std::vector<Dist> answers(pairs.size());
  service.query_batch(pairs, answers);
  std::uint64_t healthy_mismatches = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (answers[i] !=
        tz_query(central.view(pairs[i].first), central.view(pairs[i].second))) {
      ++healthy_mismatches;
    }
  }

  // Poison the primary: every slice must fail over to the previous
  // generation (the store) with zero incorrect answers.
  service.swap(std::make_shared<PoisonedOracle>(n));
  const int degraded_batches = 6;
  std::uint64_t incorrect_degraded = 0, served = 0, shed = 0;
  for (int b = 0; b < degraded_batches; ++b) {
    service.query_batch(pairs, answers);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      ++served;
      if (answers[i] == kInfDist) {
        ++shed;  // explicit "don't know", never counted as wrong
      } else if (answers[i] !=
                 store.query(pairs[i].first, pairs[i].second)) {
        ++incorrect_degraded;
      }
    }
  }
  const QueryServiceStats qs = service.stats();
  row("e16", "serve")
      .add("queries", static_cast<std::uint64_t>(pairs.size()))
      .add("healthy_mismatches", healthy_mismatches)
      .add("degraded_batches", static_cast<std::uint64_t>(degraded_batches))
      .add("degraded_served", served)
      .add("incorrect_degraded", incorrect_degraded)
      .add("shed_answers", shed)
      .add("query_failures", qs.query_failures)
      .add("stale_answers", qs.stale_answers)
      .emit(out);

  note(out, "e16",
       "Expected shape: completion_rate 1.0 with zero mismatched cells — "
       "the reliable layer recovers every grid cell to byte-identical "
       "labels; round_ratio and message_ratio stay under 1 even at 10% "
       "loss (retransmission overhead fits inside the Theorem 1.1 "
       "slack); round_overhead and message_overhead grow smoothly with "
       "the loss rate; healthy_mismatches and incorrect_degraded exactly "
       "0 — every slice the poisoned primary fails is answered by the "
       "previous generation.");
  // The crisp predicates fail the cell: every cell completes with the
  // centralized labels inside the Theorem 1.1 bounds, and no served
  // answer is wrong.
  const bool ok = completed_cells == cells && mismatched_cells == 0 &&
                  ratios_below_one && healthy_mismatches == 0 &&
                  incorrect_degraded == 0;
  return ok ? 0 : 1;
}

}  // namespace dsketch::bench
