// dsketch — command-line front end to the library.
//
//   dsketch gen   --topology er --n 1024 --p 0.01 --wmin 1 --wmax 16
//                 --seed 42 --out net.graph
//   dsketch info  --graph net.graph [--exact-diameters]
//   dsketch build --graph net.graph --scheme tz --k 3 [--echo] [--async 4]
//                 [--sim-threads 0] [--save net.store]
//   dsketch query --graph net.graph --scheme slack --epsilon 0.1
//                 --pairs 0:17,3:999 [--exact] [--load net.store]
//   dsketch eval  --graph net.graph --scheme graceful --sources 16
//   dsketch serve-bench --store net.store --workload zipf --batch 1024
//                 --threads 1,2,4 --shards 8 --cache 4096
//                 [--metrics-out m.json] [--trace-out t.json]
//   dsketch metrics-dump --store net.store --format prom
//   dsketch dynamic-bench --n 512 --rounds 6 --updates 8
//                 --policies stale,count,adaptive,repair
//   dsketch list-schemes
//   dsketch faults --graph net.graph --drop 0.05 --crashes 2 --seed 7
//   dsketch faults --store net.store --out bad.store --flip 8 --recover
//   dsketch repro --manifest bench/manifests/quick.toml [--out-dir DIR]
//                 [--threads N] [--force] [--list] [--no-report]
//
// Every --scheme is resolved through the OracleRegistry: the 4 sketch
// families (tz | slack | cdg | graceful) and the 3 baselines
// (exact | landmark | vivaldi) share one polymorphic query API. Run
// `dsketch list-schemes` for the registered table and guarantees.
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "congest/accounting.hpp"
#include "core/oracle.hpp"
#include "experiments.hpp"
#include "core/oracle_registry.hpp"
#include "obs/metrics.hpp"
#include "obs/round_log.hpp"
#include "obs/trace.hpp"
#include "exp/corpus_cache.hpp"
#include "exp/manifest.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "graph/generators.hpp"
#include "graph/graph_io.hpp"
#include "graph/shortest_paths.hpp"
#include "serve/query_service.hpp"
#include "serve/sketch_store.hpp"
#include "serve/workload.hpp"
#include "congest/fault_plan.hpp"
#include "sketch/hierarchy.hpp"
#include "sketch/stretch_eval.hpp"
#include "sketch/tz_centralized.hpp"
#include "sketch/tz_distributed.hpp"
#include "util/rng.hpp"
#include "util/flags.hpp"
#include "util/json_lines.hpp"
#include "util/timer.hpp"

using namespace dsketch;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: dsketch "
               "<gen|ingest|info|build|query|eval|serve-bench|"
               "dynamic-bench|list-schemes|faults|repro>"
               " [--flags]\n"
               "  gen   --topology er|grid|ring|path|ba|ws|geometric|tree|"
               "isp|ring_chords --n N [--p P] [--m M] [--wmin W --wmax W] "
               "[--seed S] --out FILE\n"
               "  ingest --in FILE --out FILE [--format auto|snap|dimacs]   "
               "(stream an external edge list into the native graph format; "
               "manifests can also name one directly with topology=\"file\")\n"
               "  info  --graph FILE [--exact-diameters]\n"
               "  build --graph FILE --scheme NAME [--k K] "
               "[--epsilon E] [--echo|--known-s] [--async DMAX] "
               "[--sim-threads T] [--seed S] "
               "[--landmarks L] [--save FILE] [--round-log FILE]   "
               "(sketch schemes save a binary store, baselines a text "
               "envelope)\n"
               "  query --graph FILE --scheme NAME --pairs u:v,u:v [--exact] "
               "[--load FILE]\n"
               "  eval  --graph FILE --scheme NAME [--sources N] "
               "[--epsilon-far E]\n"
               "  list-schemes   (every registered oracle scheme with its "
               "guarantee and capabilities)\n"
               "  serve-bench (--store FILE [--mmap [--verify-checksum]] | "
               "--graph FILE --scheme NAME) "
               "[--queries N] [--batch B,B,...] [--threads T,T,...] "
               "[--shards S] [--cache C] [--workload uniform|zipf] "
               "[--zipf-s S] [--hot-pairs H] [--mirror] "
               "[--seed S] [--verify N] [--metrics-out FILE] "
               "[--trace-out FILE]\n"
               "  metrics-dump (--store FILE | --graph FILE --scheme NAME) "
               "[--queries N] [--batch B] [--format prom|json]   "
               "(runs a short workload, prints the metrics registry)\n"
               "  dynamic-bench (--graph FILE | --n N) [--k K] [--rounds R] "
               "[--updates U] [--policies stale,count,adaptive,repair] "
               "[--budget B] [--unrepaired-budget B] [--rate-threshold T] "
               "[--batch B] [--cache C] [--seed S]   "
               "(E14: live refresh under churn, JSON lines)\n"
               "  faults --graph FILE [--k K] [--drop R] [--duplicate R] "
               "[--reorder R] [--crashes N] [--link-faults N] [--seed S] "
               "[--no-tolerance] [--rto R] [--max-rounds R]   "
               "(replay a seeded FaultPlan against the TZ build)\n"
               "  faults --store FILE --out FILE (--truncate N | --flip N) "
               "[--seed S] [--recover]   "
               "(corrupt a binary store; --recover runs the quarantine "
               "loader on the result)\n"
               "  repro --manifest FILE [--out-dir DIR] "
               "[--corpus-dir DIR] [--threads N] [--force] [--list] "
               "[--no-report] [--report FILE]\n");
  return 2;
}

/// Resolves --scheme (default "tz") through the registry; the factory
/// reads its own scheme flags (--k, --epsilon, --landmarks, ...).
std::unique_ptr<DistanceOracle> build_oracle(const Graph& g,
                                             const FlagSet& flags) {
  const std::string scheme = flags.get("scheme", std::string("tz"));
  return OracleRegistry::instance().build(scheme, g, flags);
}

int cmd_gen(const FlagSet& flags) {
  const Graph g = exp::generate_graph(flags);
  const std::string out = flags.require("out");
  write_graph_file(out, g);
  std::printf("wrote %s: %u nodes, %zu edges\n", out.c_str(), g.num_nodes(),
              g.num_edges());
  return 0;
}

int cmd_info(const FlagSet& flags) {
  const Graph g = read_graph_file(flags.require("graph"));
  std::printf("nodes:  %u\nedges:  %zu\n", g.num_nodes(), g.num_edges());
  std::printf("connected: %s\n", g.connected() ? "yes" : "no");
  double total_deg = 0;
  std::size_t max_deg = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    total_deg += static_cast<double>(g.degree(u));
    max_deg = std::max(max_deg, g.degree(u));
  }
  std::printf("degree: mean %.2f, max %zu\n", total_deg / g.num_nodes(),
              max_deg);
  if (flags.get_bool("exact-diameters")) {
    std::printf("hop diameter D:           %u\n", hop_diameter(g));
    std::printf("shortest-path diameter S: %u\n", shortest_path_diameter(g));
  } else {
    std::printf("hop diameter D (sampled lower bound):           %u\n",
                hop_diameter_estimate(g, 8, 1));
    std::printf("shortest-path diameter S (sampled lower bound): %u\n",
                shortest_path_diameter_estimate(g, 8, 1));
  }
  return 0;
}

/// Prints a loud, unmissable warning when a CONGEST run was truncated by
/// the round budget: every cost figure below it is a lower bound, not the
/// real cost. Shared by build and eval.
void warn_round_limit(const SimStats& cost) {
  if (!cost.hit_round_limit) return;
  std::fprintf(stderr,
               "WARNING: CONGEST round limit hit in phase(s): %s\n"
               "WARNING: rounds/messages/words below are TRUNCATED lower "
               "bounds; rerun with a larger sim round budget\n",
               cost.limited_phases().c_str());
}

/// Shared tail of `dsketch build`: save/report for a built oracle.
int finish_build(const FlagSet& flags, const DistanceOracle& oracle) {
  if (flags.has("save")) {
    std::ofstream out(flags.get("save", std::string{}), std::ios::binary);
    if (!out) throw std::runtime_error("cannot open --save file");
    oracle.save(out);
    std::printf("oracle saved to %s\n",
                flags.get("save", std::string{}).c_str());
  }
  std::printf("scheme:     %s (%s)\n", oracle.scheme().c_str(),
              oracle.guarantee().c_str());
  if (const SimStats* cost = oracle.build_cost()) {
    warn_round_limit(*cost);
    std::printf("rounds:     %llu\n",
                static_cast<unsigned long long>(cost->rounds));
    std::printf("messages:   %llu\n",
                static_cast<unsigned long long>(cost->messages));
    std::printf("words sent: %llu\n",
                static_cast<unsigned long long>(cost->words));
    const std::vector<SimPhase> phases = cost->breakdown();
    if (phases.size() > 1) {
      std::printf("phases:\n");
      for (const SimPhase& p : phases) {
        std::printf("  %-20s rounds %-8llu messages %-10llu words %llu%s\n",
                    p.label.c_str(),
                    static_cast<unsigned long long>(p.rounds),
                    static_cast<unsigned long long>(p.messages),
                    static_cast<unsigned long long>(p.words),
                    p.hit_round_limit ? "  [ROUND LIMIT]" : "");
      }
    }
  }
  std::printf("mean sketch size: %.1f words/node\n",
              oracle.mean_size_words());
  return 0;
}

int cmd_build(const FlagSet& flags) {
  const Graph g = read_graph_file(flags.require("graph"));

  // --round-log FILE: stream per-round CONGEST telemetry (JSON lines)
  // while the construction runs. Only the four sketch families execute a
  // simulator, so the flag builds through BuildConfig directly; baseline
  // schemes have no rounds to log.
  std::ofstream round_log_out;
  std::unique_ptr<obs::RoundLog> round_log;
  const std::string scheme_name_flag = flags.get("scheme", std::string("tz"));
  if (flags.has("round-log")) {
    Scheme scheme = Scheme::kThorupZwick;
    bool sketch_scheme = false;
    for (const Scheme s : {Scheme::kThorupZwick, Scheme::kSlack, Scheme::kCdg,
                           Scheme::kGraceful}) {
      if (scheme_name_flag == scheme_name(s)) {
        scheme = s;
        sketch_scheme = true;
      }
    }
    if (!sketch_scheme) {
      throw std::runtime_error("--round-log only applies to the sketch "
                               "schemes (tz|slack|cdg|graceful); scheme " +
                               scheme_name_flag + " runs no CONGEST rounds");
    }
    const std::string path = flags.get("round-log", std::string{});
    round_log_out.open(path);
    if (!round_log_out) {
      throw std::runtime_error("cannot open --round-log file: " + path);
    }
    round_log = std::make_unique<obs::RoundLog>(round_log_out);
    BuildConfig cfg = sketch_build_config(scheme, flags);
    cfg.sim.round_log = round_log.get();
    const SketchStore built(g, cfg);
    round_log->flush();
    std::printf("round log written to %s (%zu line(s))\n", path.c_str(),
                round_log->lines_emitted());
    return finish_build(flags, built);
  }
  const std::unique_ptr<DistanceOracle> oracle = build_oracle(g, flags);
  return finish_build(flags, *oracle);
}

int cmd_query(const FlagSet& flags) {
  const Graph g = read_graph_file(flags.require("graph"));
  const std::unique_ptr<DistanceOracle> oracle = [&] {
    if (flags.has("load")) {
      const std::string path = flags.get("load", std::string{});
      std::ifstream in(path, std::ios::binary);
      if (!in) throw std::runtime_error("cannot open --load file");
      LoadedOracle loaded = OracleRegistry::instance().load(in);
      check_envelope_flags(flags, loaded.envelope, path);
      if (loaded.oracle->num_nodes() != g.num_nodes()) {
        throw std::runtime_error(
            "--load " + path + ": oracle covers " +
            std::to_string(loaded.oracle->num_nodes()) +
            " nodes but --graph has " + std::to_string(g.num_nodes()));
      }
      return std::move(loaded.oracle);
    }
    return build_oracle(g, flags);
  }();
  const std::string pairs = flags.require("pairs");
  const bool exact = flags.get_bool("exact");
  std::printf("%-8s %-8s %-12s%s\n", "u", "v", "estimate",
              exact ? " exact      stretch" : "");
  std::size_t pos = 0;
  while (pos < pairs.size()) {
    const auto comma = pairs.find(',', pos);
    const std::string pair =
        pairs.substr(pos, comma == std::string::npos ? comma : comma - pos);
    pos = comma == std::string::npos ? pairs.size() : comma + 1;
    const auto colon = pair.find(':');
    if (colon == std::string::npos) {
      throw std::runtime_error("bad pair (want u:v): " + pair);
    }
    const auto u = static_cast<NodeId>(std::stoul(pair.substr(0, colon)));
    const auto v = static_cast<NodeId>(std::stoul(pair.substr(colon + 1)));
    // Validate here: not every oracle bounds-checks its own query path.
    if (u >= oracle->num_nodes() || v >= oracle->num_nodes()) {
      throw std::runtime_error("pair " + pair + " out of range (oracle "
                               "covers nodes 0.." +
                               std::to_string(oracle->num_nodes() - 1) + ")");
    }
    const Dist est = oracle->query(u, v);
    if (exact) {
      const Dist d = dijkstra(g, u)[v];
      std::printf("%-8u %-8u %-12llu %-10llu %.3f\n", u, v,
                  static_cast<unsigned long long>(est),
                  static_cast<unsigned long long>(d),
                  d == 0 ? 1.0
                         : static_cast<double>(est) / static_cast<double>(d));
    } else {
      std::printf("%-8u %-8u %-12llu\n", u, v,
                  static_cast<unsigned long long>(est));
    }
  }
  return 0;
}

int cmd_eval(const FlagSet& flags) {
  const Graph g = read_graph_file(flags.require("graph"));
  const std::unique_ptr<DistanceOracle> oracle = build_oracle(g, flags);
  const auto sources =
      static_cast<std::size_t>(flags.get("sources", std::int64_t{16}));
  const SampledGroundTruth gt(g, sources, 7);
  EvalOptions opts;
  opts.epsilon = flags.get("epsilon-far", 0.0);
  const auto report = evaluate_stretch(g, gt, *oracle, opts);
  std::printf("pairs evaluated: %zu\n", report.all.count());
  std::printf("stretch: mean %.3f  p50 %.3f  p95 %.3f  max %.3f\n",
              report.all.mean(), report.all.p(50), report.all.p(95),
              report.all.max());
  if (opts.epsilon > 0) {
    std::printf("eps-far pairs: mean %.3f max %.3f | near pairs: mean %.3f "
                "max %.3f\n",
                report.far_only.mean(), report.far_only.max(),
                report.near_only.mean(), report.near_only.max());
  }
  std::printf("underestimates: %zu (%s)\n", report.underestimates,
              oracle->capabilities().supports_paths ? "must be 0"
                                                    : "no guarantee");
  if (const SimStats* cost = oracle->build_cost()) {
    warn_round_limit(*cost);
    std::printf("build cost: %llu rounds, %llu messages; ",
                static_cast<unsigned long long>(cost->rounds),
                static_cast<unsigned long long>(cost->messages));
  }
  std::printf("mean sketch %.1f words\n", oracle->mean_size_words());
  return 0;
}

int cmd_ingest(const FlagSet& flags) {
  const std::string in_path = flags.require("in");
  const std::string out_path = flags.require("out");
  IngestStats stats;
  Timer timer;
  const Graph g = ingest_edge_list_file(
      in_path, parse_ingest_format(flags.get("format", std::string("auto"))),
      &stats);
  const double seconds = timer.seconds();
  write_graph_file(out_path, g);
  std::printf(
      "ingested %s: %u nodes, %zu edges (%zu edge lines, %zu self-loops "
      "dropped) in %.2fs -> %s\n",
      in_path.c_str(), g.num_nodes(), g.num_edges(), stats.edge_lines,
      stats.self_loops, seconds, out_path.c_str());
  return 0;
}

int cmd_serve_bench(const FlagSet& flags) {
  const std::unique_ptr<DistanceOracle> oracle = [&]() -> std::unique_ptr<DistanceOracle> {
    if (flags.has("store")) {
      const std::string store_path = flags.get("store", std::string{});
      if (flags.get_bool("mmap")) {
        // Zero-copy serving: queries read the records where the mapped
        // file's bytes lie; --verify-checksum pays one full payload pass
        // up front.
        return SketchStore::open(store_path,
                                 flags.get_bool("verify-checksum"));
      }
      return SketchStore::load_oracle(store_path);
    }
    // No store on disk: build in-process so one command covers the
    // whole build-once/serve-many pipeline — any registered scheme
    // serves, baselines included. A sketch scheme builds a SketchStore,
    // the same representation --store loads.
    const Graph g = read_graph_file(flags.require("graph"));
    return build_oracle(g, flags);
  }();

  WorkloadConfig wl;
  wl.kind = parse_workload_kind(flags.get("workload", std::string("uniform")));
  wl.hot_pairs =
      static_cast<std::size_t>(flags.get("hot-pairs", std::int64_t{4096}));
  wl.zipf_s = flags.get("zipf-s", 1.2);
  wl.mirror = flags.get_bool("mirror");
  wl.seed = static_cast<std::uint64_t>(flags.get("seed", std::int64_t{7}));

  const auto queries =
      static_cast<std::size_t>(flags.get("queries", std::int64_t{200000}));
  const auto shards = flags.get("shards", std::int64_t{0});  // 0 = auto
  const auto cache = flags.get("cache", std::int64_t{0});
  const auto verify =
      static_cast<std::size_t>(flags.get("verify", std::int64_t{1000}));
  if (shards < 0) throw std::runtime_error("--shards must be >= 0");
  if (cache < 0) throw std::runtime_error("--cache must be >= 0");

  // --metrics-out: collect a registry snapshot across the whole sweep.
  // Batch latencies are recorded into both the log-bucketed histogram
  // and an exact sample set, so the output file carries its own
  // accuracy cross-check (histogram percentiles vs exact ones).
  const std::string metrics_out = flags.get("metrics-out", std::string{});
  const std::string trace_out = flags.get("trace-out", std::string{});
  obs::MetricsRegistry registry;
  obs::LatencyHistogram* batch_hist =
      metrics_out.empty() ? nullptr : &registry.histogram("serve_batch_us");
  SampleSet exact_batch_us;
  if (!trace_out.empty()) obs::TraceSession::start(1 << 19);

  for (const std::int64_t threads :
       parse_int_list(flags.get("threads", std::string("0")))) {
    if (threads < 0) throw std::runtime_error("--threads must be >= 0");
    for (const std::int64_t batch :
         parse_int_list(flags.get("batch", std::string("1024")))) {
      if (batch <= 0) throw std::runtime_error("--batch must be positive");
      QueryServiceConfig cfg;
      cfg.shards = static_cast<std::size_t>(shards);
      cfg.threads = static_cast<std::size_t>(threads);
      cfg.cache_capacity = static_cast<std::size_t>(cache);
      QueryService service(*oracle, cfg);
      WorkloadGenerator gen(oracle->num_nodes(), wl);

      std::vector<QueryService::Pair> pairs;
      std::vector<Dist> answers;
      std::size_t mismatches = 0;
      std::size_t done = 0;
      while (done < queries) {
        const std::size_t count =
            std::min(static_cast<std::size_t>(batch), queries - done);
        pairs = gen.batch(count);
        answers.assign(count, 0);
        if (batch_hist != nullptr) {
          Timer batch_timer;
          service.query_batch(pairs, answers);
          const double us = batch_timer.seconds() * 1e6;
          batch_hist->record(us);
          exact_batch_us.add(us);
        } else {
          service.query_batch(pairs, answers);
        }
        // Spot-check the first batch against the store's single-threaded
        // answers; the service must be bit-identical.
        if (done == 0) {
          for (std::size_t i = 0; i < std::min(verify, count); ++i) {
            if (answers[i] !=
                oracle->query(pairs[i].first, pairs[i].second)) {
              ++mismatches;
            }
          }
        }
        done += count;
      }

      const QueryServiceStats stats = service.stats();
      if (!metrics_out.empty()) service.export_metrics(registry);
      dsketch::bench::JsonLine line;
      line.add("bench", "serve")
          .add("scheme", oracle->scheme())
          .add("n", static_cast<std::uint64_t>(oracle->num_nodes()))
          .add("guarantee", oracle->guarantee())
          .add("workload",
               wl.kind == WorkloadConfig::Kind::kUniform ? "uniform" : "zipf")
          .add("threads", static_cast<std::uint64_t>(service.num_threads()))
          .add("shards", static_cast<std::uint64_t>(service.num_shards()))
          .add("batch", static_cast<std::uint64_t>(batch))
          .add("cache", static_cast<std::uint64_t>(cache))
          .add("queries", stats.queries)
          .add("wall_seconds", stats.wall_seconds)
          .add("qps", stats.qps)
          .add("hit_rate", stats.hit_rate)
          .add("p50_shard_batch_us", stats.slice_latency_us.p50)
          .add("p99_shard_batch_us", stats.slice_latency_us.p99)
          .add("mismatches", static_cast<std::uint64_t>(mismatches))
          .emit();
      if (mismatches > 0) {
        throw std::runtime_error("service answers diverged from the oracle");
      }
    }
  }

  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out);
    if (!out) {
      throw std::runtime_error("cannot open --metrics-out file: " +
                               metrics_out);
    }
    registry.write_json(out);
    // Exact-sample twin of the "serve_batch_us" histogram line above it:
    // readers can diff the two to bound the log-bucket error in situ.
    const Summary exact = exact_batch_us.summary();
    dsketch::bench::JsonLine line;
    line.add("metric", "serve_batch_us_exact")
        .add("kind", "summary")
        .add("count", static_cast<std::uint64_t>(exact.count))
        .add("mean", exact.mean)
        .add("min", exact.min)
        .add("p50", exact.p50)
        .add("p95", exact.p95)
        .add("p99", exact.p99)
        .add("max", exact.max)
        .emit(out);
    std::fprintf(stderr, "metrics snapshot written to %s\n",
                 metrics_out.c_str());
  }
  if (!trace_out.empty()) {
    const std::shared_ptr<obs::TraceSession> session =
        obs::TraceSession::stop();
    if (session != nullptr) {
      std::ofstream out(trace_out);
      if (!out) {
        throw std::runtime_error("cannot open --trace-out file: " +
                                 trace_out);
      }
      session->write_chrome_trace(out);
      std::fprintf(stderr,
                   "chrome trace written to %s (%llu event(s), %llu "
                   "dropped) — load in chrome://tracing or ui.perfetto.dev\n",
                   trace_out.c_str(),
                   static_cast<unsigned long long>(session->event_count()),
                   static_cast<unsigned long long>(session->dropped()));
    }
  }
  return 0;
}

/// Runs a short workload through a QueryService and prints the metrics
/// registry — the quickest way to see what the serving metrics look like
/// (and the format a scrape endpoint would expose).
int cmd_metrics_dump(const FlagSet& flags) {
  const std::unique_ptr<DistanceOracle> oracle = [&] {
    if (flags.has("store")) {
      return SketchStore::load_oracle(flags.get("store", std::string{}));
    }
    const Graph g = read_graph_file(flags.require("graph"));
    return build_oracle(g, flags);
  }();
  const std::string format = flags.get("format", std::string("prom"));
  if (format != "prom" && format != "json") {
    throw std::runtime_error("--format must be prom or json");
  }
  const auto queries =
      static_cast<std::size_t>(flags.get("queries", std::int64_t{20000}));
  const auto batch =
      static_cast<std::size_t>(flags.get("batch", std::int64_t{1024}));
  if (batch == 0) throw std::runtime_error("--batch must be positive");

  QueryServiceConfig cfg;
  cfg.threads = 1;
  cfg.cache_capacity = 4096;
  QueryService service(*oracle, cfg);
  WorkloadConfig wl;
  wl.kind = WorkloadConfig::Kind::kZipf;
  wl.seed = static_cast<std::uint64_t>(flags.get("seed", std::int64_t{7}));
  WorkloadGenerator gen(oracle->num_nodes(), wl);
  std::vector<Dist> answers;
  for (std::size_t done = 0; done < queries; done += batch) {
    const std::vector<QueryService::Pair> pairs =
        gen.batch(std::min(batch, queries - done));
    answers.assign(pairs.size(), 0);
    service.query_batch(pairs, answers);
  }

  obs::MetricsRegistry registry;
  service.export_metrics(registry);
  if (format == "prom") {
    registry.write_prometheus(std::cout);
  } else {
    registry.write_json(std::cout);
  }
  return 0;
}

/// Prints every registered oracle scheme with its capabilities — sourced
/// from the registry, so a newly registered scheme shows up with no CLI
/// change.
int cmd_list_schemes() {
  std::printf("%-10s %-38s %-13s %s\n", "scheme", "guarantee",
              "capabilities", "summary");
  for (const OracleScheme* s : OracleRegistry::instance().schemes()) {
    const bool paths = s->caps.supports_paths;
    const char* caps = s->caps.symmetric ? (paths ? "paths,sym" : "sym")
                                         : (paths ? "paths" : "");
    std::printf("%-10s %-38s %-13s %s\n", s->name.c_str(),
                s->guarantee.c_str(), caps, s->summary.c_str());
  }
  return 0;
}

/// Fault tooling, two modes sharing one subcommand:
///   dsketch faults --graph FILE [--k K] [--drop R] [--duplicate R]
///       [--reorder R] [--crashes N] [--link-faults N] [--seed S]
///       [--no-tolerance] [--rto R] [--sim-threads T] [--max-rounds R]
///     Replays the seeded FaultPlan against the fault-tolerant in-network
///     TZ build and prints the run as JSON lines (schedule, stats, label
///     verification against the centralized construction). The same
///     --seed always replays the same run — this is the debugging entry
///     point for any fault failure seen in E16 or the fuzz tests.
///   dsketch faults --store FILE --out FILE (--truncate N | --flip N)
///       [--seed S] [--recover]
///     Writes a deliberately corrupted copy of a binary sketch store
///     (truncate the tail, or flip N seeded random payload bytes);
///     --recover then runs the quarantine loader on the damaged copy and
///     reports what survived.
int cmd_faults(const FlagSet& flags) {
  if (flags.has("store")) {
    const std::string in_path = flags.get("store", std::string{});
    const std::string out_path = flags.require("out");
    std::ifstream in(in_path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot open --store file: " + in_path);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    const auto seed =
        static_cast<std::uint64_t>(flags.get("seed", std::int64_t{1}));
    const auto truncate_bytes =
        static_cast<std::size_t>(flags.get("truncate", std::int64_t{0}));
    const auto flips =
        static_cast<std::size_t>(flags.get("flip", std::int64_t{0}));
    if (truncate_bytes == 0 && flips == 0) {
      throw std::runtime_error("--store mode needs --truncate N or --flip N");
    }
    if (truncate_bytes > 0) {
      bytes.resize(bytes.size() > truncate_bytes
                       ? bytes.size() - truncate_bytes
                       : 0);
    }
    Rng rng(seed);
    for (std::size_t i = 0; i < flips && !bytes.empty(); ++i) {
      // Flip payload bytes (past the 64-byte header) so the damage lands
      // in records, not the magic; header damage is always fatal anyway.
      const std::size_t lo = bytes.size() > 64 ? 64 : 0;
      const std::size_t at = lo + rng.below(bytes.size() - lo);
      bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng.below(8)));
    }
    std::ofstream out(out_path, std::ios::binary);
    if (!out) throw std::runtime_error("cannot open --out file: " + out_path);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    std::printf("corrupted %s -> %s (%zu bytes, truncated %zu, flipped %zu)\n",
                in_path.c_str(), out_path.c_str(), bytes.size(),
                truncate_bytes, flips);
    if (flags.get_bool("recover")) {
      try {
        const SketchStore::Recovery rec = SketchStore::recover_file(out_path);
        std::printf("recovered: scheme=%s nodes=%u quarantined=%zu "
                    "checksum_ok=%d\n",
                    rec.store.scheme().c_str(), rec.store.num_nodes(),
                    rec.quarantined.size(), rec.checksum_ok ? 1 : 0);
        for (const NodeId u : rec.quarantined) {
          std::printf("  quarantined node %u\n", u);
        }
      } catch (const StoreCorruptionError& e) {
        std::printf("unrecoverable: %s\n", e.what());
        return 1;
      }
    }
    return 0;
  }

  const Graph g = read_graph_file(flags.require("graph"));
  const auto k = static_cast<std::uint32_t>(flags.get("k", std::int64_t{2}));
  const auto seed =
      static_cast<std::uint64_t>(flags.get("seed", std::int64_t{7}));
  FaultConfig fc;
  fc.drop_rate = flags.get("drop", 0.05);
  fc.duplicate_rate = flags.get("duplicate", 0.02);
  fc.reorder_rate = flags.get("reorder", 0.05);
  fc.node_crashes =
      static_cast<std::uint32_t>(flags.get("crashes", std::int64_t{2}));
  fc.crash_horizon = static_cast<std::uint64_t>(
      flags.get("crash-horizon", std::int64_t{64}));
  fc.crash_downtime = static_cast<std::uint64_t>(
      flags.get("crash-downtime", std::int64_t{12}));
  fc.link_faults =
      static_cast<std::uint32_t>(flags.get("link-faults", std::int64_t{0}));
  fc.seed = seed;
  const FaultPlan plan(g, fc);
  bench::JsonLine schedule;
  schedule.add("table", "schedule")
      .add("seed", fc.seed)
      .add("drop_rate", fc.drop_rate)
      .add("duplicate_rate", fc.duplicate_rate)
      .add("reorder_rate", fc.reorder_rate)
      .add("crashes", fc.node_crashes)
      .add("link_faults", fc.link_faults);
  schedule.emit(std::cout);
  for (const CrashEvent& c : plan.crashes()) {
    bench::JsonLine line;
    line.add("table", "crash")
        .add("node", static_cast<std::uint64_t>(c.node))
        .add("at", c.at)
        .add("restart", c.restart)
        .emit(std::cout);
  }

  const Hierarchy h = Hierarchy::sample(g.num_nodes(), k, seed + 3);
  SimConfig cfg;
  cfg.threads =
      static_cast<unsigned>(flags.get("sim-threads", std::int64_t{0}));
  cfg.faults = &plan;
  if (flags.has("max-rounds")) {
    cfg.max_rounds = static_cast<std::uint64_t>(
        flags.get("max-rounds", std::int64_t{0}));
  }
  TzFaultTolerance ft;
  ft.enabled = !flags.get_bool("no-tolerance");
  ft.rto = static_cast<std::uint32_t>(flags.get("rto", std::int64_t{8}));
  Timer timer;
  const TzDistributedResult r = build_tz_distributed(
      g, h, TerminationMode::kEcho, cfg, false, 0, ft);
  const double seconds = timer.seconds();

  std::uint64_t label_mismatches = 0;
  bool verified = false;
  if (r.completed && g.num_nodes() <= 4096) {
    const LabelArena central = build_tz_centralized(g, h);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (!(r.labels.view(u) == central.view(u))) ++label_mismatches;
    }
    verified = true;
  }
  SimStats combined = r.tree_stats;
  combined += r.stats;
  bench::JsonLine result;
  result.add("table", "run")
      .add("completed", r.completed)
      .add("rounds", r.total_rounds())
      .add("messages", r.total_messages())
      .add("dropped", combined.dropped)
      .add("duplicated", combined.duplicated)
      .add("retransmits", r.retransmits)
      .add("duplicate_discards", r.duplicate_discards)
      .add("tolerance", ft.enabled)
      .add("verified", verified)
      .add("label_mismatches", label_mismatches)
      .add("seconds", seconds);
  result.emit(std::cout);
  return r.completed && label_mismatches == 0 ? 0 : 1;
}

/// Runs a manifest's experiment grid and regenerates the results report.
/// Resume is the default: cells whose artifacts already exist and
/// validate are skipped, so an interrupted grid picks up where it left
/// off; --force reruns everything.
int cmd_repro(const FlagSet& flags) {
  const exp::Manifest manifest =
      exp::load_manifest_file(flags.require("manifest"));

  const std::vector<exp::Cell> cells = exp::expand_cells(manifest);
  if (flags.get_bool("list")) {
    std::printf("manifest %s: %zu cell(s)\n", manifest.name.c_str(),
                cells.size());
    for (const exp::Cell& cell : cells) {
      std::string params;
      for (const auto& [k, v] : cell.params) {
        params += " " + k + "=" + v;
      }
      std::printf("  %s%s\n", cell.id().c_str(), params.c_str());
    }
    return 0;
  }

  exp::RunOptions opts;
  opts.out_dir =
      flags.get("out-dir", std::string("exp_out/") + manifest.name);
  opts.corpus_dir = flags.get("corpus-dir", std::string{});
  opts.threads =
      static_cast<std::size_t>(flags.get("threads", std::int64_t{0}));
  opts.force = flags.get_bool("force");
  opts.progress = &std::cerr;

  const exp::RunSummary summary = exp::run_manifest(manifest, opts);
  std::printf("repro %s: %zu ran, %zu skipped (resume), %zu failed in "
              "%.1f s -> %s\n",
              manifest.name.c_str(), summary.ran, summary.skipped,
              summary.failed, summary.wall_seconds, opts.out_dir.c_str());
  for (const exp::CellResult& cell : summary.cells) {
    if (cell.status == exp::CellResult::Status::kFailed) {
      std::fprintf(stderr, "  failed: %s (%s)\n", cell.id.c_str(),
                   cell.error.c_str());
    }
  }

  if (!flags.get_bool("no-report")) {
    const std::string report_path =
        flags.get("report", std::string("docs/RESULTS.md"));
    exp::write_report(opts.out_dir, manifest.name, report_path);
    std::printf("report regenerated: %s\n", report_path.c_str());
  }
  return summary.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const FlagSet flags(argc - 1, argv + 1);
  try {
    if (cmd == "gen") return cmd_gen(flags);
    if (cmd == "ingest") return cmd_ingest(flags);
    if (cmd == "info") return cmd_info(flags);
    if (cmd == "build") return cmd_build(flags);
    if (cmd == "query") return cmd_query(flags);
    if (cmd == "eval") return cmd_eval(flags);
    if (cmd == "serve-bench") return cmd_serve_bench(flags);
    if (cmd == "metrics-dump") return cmd_metrics_dump(flags);
    if (cmd == "dynamic-bench") {
      return dsketch::bench::run_e14(flags, std::cout);
    }
    if (cmd == "list-schemes" || cmd == "--list-schemes") {
      return cmd_list_schemes();
    }
    if (cmd == "faults") return cmd_faults(flags);
    if (cmd == "repro") return cmd_repro(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
