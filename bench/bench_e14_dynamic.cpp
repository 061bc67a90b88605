// E14 — live sketch refresh: serving through churn (§1/§5: preprocessing
// "would require altering the sketches periodically" — this experiment
// does it without stopping traffic).
//
// One serving thread answers a continuous zipf query stream through the
// sharded QueryService while the controller thread applies a seeded
// edge-churn stream (dynamics/update_stream) to the graph and keeps the
// serving oracle fresh per policy:
//
//   stale    — never touch the sketch (E11's serve-stale baseline)
//   count    — full rebuild via the OracleRegistry every --budget updates
//   adaptive — probe the underestimate rate every --probe-every updates,
//              rebuild when it exceeds --rate-threshold
//   repair   — incremental in-place repair of inserts/weight decreases
//              (dynamics/incremental), rebuild after --unrepaired-budget
//              distance-increasing updates
//
// Rebuilt/repaired oracles are hot-swapped with one generation-tagged
// pointer flip (serve/snapshot.hpp); every batch's answers are verified
// against the exact oracle of the generation that served it, so a torn
// or stale-cache answer is counted — the run fails if any appears.
// Per round the controller scores the serving snapshot against ground
// truth on the *current* graph: guarantee-violation (underestimate) rate
// and stretch, the freshness metrics; per policy it reports QPS in and
// out of rebuild windows plus swap latency, the availability metrics.
//
// Flags: --n (512) / --p / --graph FILE, --k (3), --rounds (6),
// --updates (8 per round), --policies (stale,count,adaptive,repair),
// --budget (16), --unrepaired-budget (4), --rate-threshold (0.02),
// --probe-every (8), --batch (512), --cache (1024), --shards (8),
// --threads (1), --sources (4), --wmin/--wmax (churn weights, 1/12),
// --seed.
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_common.hpp"
#include "core/oracle_registry.hpp"
#include "dynamics/incremental.hpp"
#include "dynamics/update_stream.hpp"
#include "obs/trace.hpp"
#include "obs_overhead.hpp"
#include "serve/query_service.hpp"
#include "serve/workload.hpp"

namespace dsketch::bench {

namespace {

/// Batch answers that were never written by the service would keep this
/// value; estimates are sums of real edge weights, so it can't collide.
constexpr Dist kUnwritten = static_cast<Dist>(-2);

/// Every oracle generation ever published to the service, so the serving
/// thread can verify a batch against the exact oracle that answered it.
class GenerationMap {
 public:
  void add(std::uint64_t generation,
           std::shared_ptr<const DistanceOracle> oracle) {
    std::lock_guard<std::mutex> lock(mu_);
    map_[generation] = std::move(oracle);
  }
  std::shared_ptr<const DistanceOracle> find(std::uint64_t generation) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = map_.find(generation);
    return it == map_.end() ? nullptr : it->second;
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<const DistanceOracle>>
      map_;
};

/// What the serving thread measured for one policy run.
struct ServeCounters {
  std::uint64_t queries_steady = 0;
  std::uint64_t queries_rebuild = 0;  ///< batches overlapping a rebuild
  double secs_steady = 0;
  double secs_rebuild = 0;
  std::uint64_t torn = 0;       ///< answer != its generation's oracle
  std::uint64_t unwritten = 0;  ///< slot never filled by the batch
};

struct PolicyKnobs {
  bool repair = false;
  RebuildPolicyConfig rebuild;
  bool uses_policy = false;
};

PolicyKnobs policy_knobs(const std::string& name, const FlagSet& flags) {
  PolicyKnobs k;
  const auto budget =
      static_cast<std::size_t>(flags.get("budget", std::int64_t{16}));
  if (name == "stale") return k;
  k.uses_policy = true;
  if (name == "count") {
    k.rebuild.max_updates = budget;
  } else if (name == "adaptive") {
    k.rebuild.max_underestimate_rate = flags.get("rate-threshold", 0.02);
    k.rebuild.probe_every =
        static_cast<std::size_t>(flags.get("probe-every", std::int64_t{8}));
    k.rebuild.probe_sources = static_cast<std::size_t>(
        flags.get("probe-sources", std::int64_t{2}));
  } else if (name == "repair") {
    k.repair = true;
    k.rebuild.max_unrepaired = static_cast<std::size_t>(
        flags.get("unrepaired-budget", std::int64_t{4}));
  } else {
    throw std::runtime_error(
        "e14: unknown policy (want stale|count|adaptive|repair): " + name);
  }
  return k;
}

struct PolicyOutcome {
  std::uint64_t torn = 0;
  std::uint64_t unwritten = 0;
  double mean_violation_rate = 0;
};

PolicyOutcome run_policy(const std::string& policy, const Graph& g0,
                         std::shared_ptr<const DistanceOracle> initial,
                         const FlagSet& flags, std::ostream& out) {
  const auto k = static_cast<std::uint32_t>(flags.get("k", std::int64_t{3}));
  const auto seed =
      static_cast<std::uint64_t>(flags.get("seed", std::int64_t{17}));
  const auto rounds =
      static_cast<std::size_t>(flags.get("rounds", std::int64_t{6}));
  const auto updates_per_round =
      static_cast<std::size_t>(flags.get("updates", std::int64_t{8}));
  const auto batch =
      static_cast<std::size_t>(flags.get("batch", std::int64_t{512}));
  const auto sources =
      static_cast<std::size_t>(flags.get("sources", std::int64_t{4}));
  const PolicyKnobs knobs = policy_knobs(policy, flags);

  UpdateStreamConfig ucfg;
  ucfg.wmin = static_cast<Weight>(flags.get("wmin", std::int64_t{1}));
  ucfg.wmax = static_cast<Weight>(flags.get("wmax", std::int64_t{12}));
  ucfg.seed = seed;  // identical churn across policies
  UpdateStream stream(g0, ucfg);

  // The repair policy maintains its own label mirror; its initial
  // serving oracle is the mirror's snapshot so repairs stay comparable
  // against their own lineage.
  std::unique_ptr<TzDynamicSketch> mirror;
  std::shared_ptr<const DistanceOracle> serving = initial;
  if (knobs.repair) {
    mirror = std::make_unique<TzDynamicSketch>(g0, k, seed);
    serving = mirror->snapshot();
  }

  QueryServiceConfig scfg;
  scfg.shards =
      static_cast<std::size_t>(flags.get("shards", std::int64_t{8}));
  scfg.threads =
      static_cast<std::size_t>(flags.get("threads", std::int64_t{1}));
  scfg.cache_capacity =
      static_cast<std::size_t>(flags.get("cache", std::int64_t{1024}));
  QueryService service(serving, scfg);

  GenerationMap generations;
  generations.add(service.generation(), serving);

  std::atomic<bool> stop{false};
  std::atomic<bool> rebuilding{false};
  ServeCounters counters;
  std::thread server([&] {
    WorkloadConfig wl;
    wl.kind = WorkloadConfig::Kind::kZipf;
    wl.hot_pairs = 2048;
    wl.seed = seed + 1;
    WorkloadGenerator gen(g0.num_nodes(), wl);
    std::vector<QueryService::Pair> pairs;
    std::vector<Dist> answers;
    while (!stop.load(std::memory_order_acquire)) {
      pairs = gen.batch(batch);
      answers.assign(batch, kUnwritten);
      const bool in_rebuild = rebuilding.load(std::memory_order_acquire);
      Timer timer;
      const std::uint64_t generation =
          service.query_batch(pairs, answers);
      const double secs = timer.seconds();
      if (in_rebuild) {
        counters.queries_rebuild += batch;
        counters.secs_rebuild += secs;
      } else {
        counters.queries_steady += batch;
        counters.secs_steady += secs;
      }
      // A batch is torn if any answer disagrees with the oracle of the
      // generation that served it, or if a slot was never written.
      // Every answer of every batch is checked — the re-query runs
      // outside the timed window, so it costs batches-per-second, not
      // the reported QPS.
      const std::shared_ptr<const DistanceOracle> oracle =
          generations.find(generation);
      if (oracle == nullptr) {
        ++counters.torn;
        continue;
      }
      for (std::size_t i = 0; i < batch; ++i) {
        if (answers[i] == kUnwritten) {
          ++counters.unwritten;
        } else if (answers[i] !=
                   oracle->query(pairs[i].first, pairs[i].second)) {
          ++counters.torn;
        }
      }
    }
  });

  RebuildPolicy rebuild_policy(knobs.rebuild);
  std::uint64_t published_improvements = 0;
  std::uint64_t rebuilds = 0;
  std::uint64_t inserts = 0, deletes = 0, reweights = 0;
  double last_rebuild_seconds = 0;
  double last_swap_us = 0;
  SampleSet swap_us;
  double violation_sum = 0;

  for (std::size_t round = 0; round < rounds; ++round) {
    bool fire = false;
    for (std::size_t u = 0; u < updates_per_round; ++u) {
      const EdgeUpdate update = stream.next();
      switch (update.kind) {
        case UpdateKind::kInsert: ++inserts; break;
        case UpdateKind::kDelete: ++deletes; break;
        case UpdateKind::kReweight: ++reweights; break;
      }
      bool repaired = false;
      if (mirror != nullptr) {
        repaired = mirror->apply(stream.graph(), update);
      }
      if (knobs.uses_policy) {
        fire |= rebuild_policy.note_update(
            stream.graph(), *service.snapshot().oracle, repaired);
      }
    }

    if (fire) {
      // The rebuild runs on this (controller) thread while the serving
      // thread keeps answering — that concurrency is the experiment.
      rebuilding.store(true, std::memory_order_release);
      Timer rebuild_timer;
      std::shared_ptr<const DistanceOracle> next;
      if (mirror != nullptr) {
        mirror->rebuild(stream.graph(), seed + round + 1);
        next = mirror->snapshot();
      } else {
        next = std::shared_ptr<const DistanceOracle>(
            OracleRegistry::instance().build("tz", stream.graph(), flags));
      }
      last_rebuild_seconds = rebuild_timer.seconds();
      rebuilding.store(false, std::memory_order_release);
      // Register under the generation the swap is about to publish
      // (this controller is the only swapper, so it is deterministic):
      // a batch must never observe a generation the verifier cannot
      // resolve.
      generations.add(service.generation() + 1, next);
      Timer swap_timer;
      service.swap(next);
      last_swap_us = swap_timer.seconds() * 1e6;
      swap_us.add(last_swap_us);
      rebuild_policy.note_rebuilt();
      if (mirror != nullptr) {
        published_improvements = mirror->stats().entries_improved;
      }
      ++rebuilds;
    } else if (mirror != nullptr &&
               mirror->stats().entries_improved > published_improvements) {
      // Publish the repaired labels even without a rebuild — repair is
      // only useful to traffic once swapped in — but only when a repair
      // actually changed an entry: a no-op swap would invalidate every
      // shard cache and deflate this policy's hit rate for nothing.
      std::shared_ptr<const DistanceOracle> next = mirror->snapshot();
      generations.add(service.generation() + 1, next);
      Timer swap_timer;
      service.swap(next);
      last_swap_us = swap_timer.seconds() * 1e6;
      swap_us.add(last_swap_us);
      published_improvements = mirror->stats().entries_improved;
    }

    // Let the serving thread run against the just-published snapshot for
    // a fixed slice of wall time: without this, the controller loop
    // finishes in microseconds and the "concurrent load" the experiment
    // is about never materializes.
    const auto round_ms = flags.get("round-ms", std::int64_t{30});
    if (round_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(round_ms));
    }

    // Freshness of what traffic is served *now*, against ground truth on
    // the graph as it is *now*.
    const OracleSnapshot snap = service.snapshot();
    const StretchReport freshness = evaluate_stretch(
        stream.graph(),
        SampledGroundTruth(stream.graph(), sources, seed + 100 + round),
        *snap.oracle, {});
    const double violation_rate = freshness.underestimate_rate();
    violation_sum += violation_rate;
    row("e14", "refresh_rounds")
        .add("policy", policy)
        .add("round", static_cast<std::uint64_t>(round))
        .add("updates_applied", stream.applied())
        .add("violation_rate", violation_rate)
        .add("mean_stretch", freshness.all.mean())
        .add("p95_stretch", freshness.all.p(95))
        .add("rebuilds", rebuilds)
        .add("generation", snap.generation)
        .add("rebuild_seconds", last_rebuild_seconds)
        .add("swap_latency_us", last_swap_us)
        .emit(out);
  }

  stop.store(true, std::memory_order_release);
  server.join();

  const QueryServiceStats stats = service.stats();
  const PolicyOutcome outcome{
      counters.torn, counters.unwritten,
      violation_sum / static_cast<double>(rounds)};
  row("e14", "policy_summary")
      .add("policy", policy)
      .add("n", static_cast<std::uint64_t>(g0.num_nodes()))
      .add("k", k)
      .add("updates_total", stream.applied())
      .add("inserts", inserts)
      .add("deletes", deletes)
      .add("reweights", reweights)
      .add("rebuilds", rebuilds)
      .add("swaps", stats.swaps)
      .add("cache_invalidations", stats.cache_invalidations)
      .add("queries_served", stats.queries)
      .add("hit_rate", stats.hit_rate)
      .add("qps_steady", counters.secs_steady > 0
                             ? static_cast<double>(counters.queries_steady) /
                                   counters.secs_steady
                             : 0)
      .add("qps_during_rebuild",
           counters.secs_rebuild > 0
               ? static_cast<double>(counters.queries_rebuild) /
                     counters.secs_rebuild
               : 0)
      .add("mean_swap_latency_us", swap_us.count() > 0 ? swap_us.mean() : 0)
      .add("mean_violation_rate", outcome.mean_violation_rate)
      .add("torn_queries", counters.torn)
      .add("unwritten_answers", counters.unwritten)
      .emit(out);
  return outcome;
}

}  // namespace

int run_e14(const FlagSet& flags, std::ostream& out) {
  const Graph g0 = primary_graph(flags, 512, 0.015, {1, 12}, 33);
  if (!g0.connected()) {
    throw std::runtime_error("e14 needs a connected input graph");
  }

  // One shared initial oracle for the non-repair policies: every policy
  // starts from the same sketch and faces the same churn stream.
  const std::shared_ptr<const DistanceOracle> initial(
      OracleRegistry::instance().build("tz", g0, flags));

  std::uint64_t torn = 0, unwritten = 0;
  double stale_rate = -1;
  double best_managed_rate = -1;
  // The whole policy sweep runs under a trace session: the resulting
  // Chrome trace holds serve_batch / shard_slice / oracle_batch spans (one
  // batch call per slice with cache misses) on the serving thread,
  // interleaved with sketch_rebuild / oracle_swap on the controller — the
  // hot-swap concurrency, visible. The session's spans are then checked
  // for nesting per thread, in memory: an overlapping (non-nested) pair
  // of spans on one thread would mean broken RAII scopes or a torn
  // timestamp, and fails the run like a torn answer.
  const std::shared_ptr<obs::TraceSession> trace =
      obs::TraceSession::start(std::size_t{1} << 19);
  for (const std::string& policy : parse_name_list(flags.get(
           "policies", std::string("stale,count,adaptive,repair")))) {
    const PolicyOutcome outcome =
        run_policy(policy, g0, initial, flags, out);
    torn += outcome.torn;
    unwritten += outcome.unwritten;
    if (policy == "stale") {
      stale_rate = outcome.mean_violation_rate;
    } else if (best_managed_rate < 0 ||
               outcome.mean_violation_rate < best_managed_rate) {
      best_managed_rate = outcome.mean_violation_rate;
    }
  }

  obs::TraceSession::stop();
  if (flags.has("trace-out")) {
    const std::string path = flags.get("trace-out", std::string{});
    std::ofstream f(path);
    if (!f) throw std::runtime_error("cannot open --trace-out: " + path);
    trace->write_chrome_trace(f);
  }
  const std::string trace_error = trace->check_nesting();
  row("e14", "trace_check")
      .add("events", static_cast<std::uint64_t>(trace->event_count()))
      .add("dropped", trace->dropped())
      .add("nesting_ok", trace_error.empty())
      .add("error", trace_error)
      .emit(out);

  // Observability cost under this experiment's oracle (single-threaded
  // service, no churn — the steady-state floor the policies serve from).
  emit_obs_overhead_row("e14", *initial, 50000, out);

  if (stale_rate >= 0 && best_managed_rate >= 0) {
    row("e14", "policy_comparison")
        .add("stale_mean_violation_rate", stale_rate)
        .add("best_managed_mean_violation_rate", best_managed_rate)
        .add("violation_reduction",
             stale_rate > 0 ? 1.0 - best_managed_rate / stale_rate : 0.0)
        .emit(out);
  }
  note(out, "e14",
       "Expected shape: zero torn/unwritten answers under every policy "
       "(checked: the run exits 1 on a torn or unwritten answer, or when "
       "the trace session's spans do not nest). Not checked, read at "
       "default flags: mean_violation_rate stale and adaptive 2.4e-3, "
       "count 8.2e-5, repair 0; mean swap latency 0.5-1.0 us; "
       "qps_during_rebuild 17-55 M against qps_steady 39-53 M. "
       "obs_overhead is E7's measurement on this oracle; CI gates E7's row "
       "(metrics at most 5%, tracing at most 10%); it read tracing "
       "2.6-3.9% here.");
  return torn == 0 && unwritten == 0 && trace_error.empty() ? 0 : 1;
}

}  // namespace dsketch::bench
