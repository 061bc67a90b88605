// ladder — the dsketch benchmark. One process runs one workload:
//
//   ladder --workload NAME --seed S --seconds T --trace 0|1 --workdir DIR
//          [--trace-dir DIR]
//
// Every workload is a closed loop driven by one thread, and everything it
// times runs on that thread: the query service has one lane and the
// simulator one lane. On a host of a few shared cores (a 4-vCPU KVM
// guest), 4-lane timings measured the scheduler and the neighbours more
// than the code: ten runs of the same code spread by up to 50% of their
// median. A pool of four threads only speeds up the untimed work: the
// set-up's centralized builds, the reference answers, the probes, and the
// traced run's 4-lane ladder rung.
//
// Each workload's topology is one fixed instance, generated during set-up
// from a constant seed like a corpus graph, and the sketch build uses the
// registry's default seed for its hierarchy. --seed draws the traffic: the
// query pairs, and the pairs and probe sources the answers are checked on.
// With the topology drawn from --seed instead, store size moved by 4-8%
// between seeds at these sizes (TZ's top level holds only n^(1/k) nodes,
// and where they land sets every bunch), and that input noise would hide
// the code's own changes.
//
//   serve-uniform-100k  TZ k=4 labels of an ER graph (n=100,000, average
//                       degree 12, weights 1..12), packed, saved as v3 and
//                       loaded back, then served through a 1-lane
//                       QueryService (16 shards, 4096-entry LRU per shard,
//                       1024-pair batches) from 2^20 pregenerated uniform
//                       pairs. Almost every query misses the cache and
//                       merges two packed records from a ~110 MB heap
//                       arena: the merge and record layout dominate, and
//                       the cache only adds cost. The simulator is idle.
//   build-tz-1k         The `dsketch build` path at n=1,024: ingest a SNAP
//                       edge list, build TZ k=4 in-network through the
//                       OracleRegistry ("tz": CONGEST simulator, echo
//                       termination, one simulator lane), pack, save as v3.
//                       The simulator does nearly all the work; this is
//                       the paper's build cost, and serving is idle.
//
// An op is the workload's unit of work: one 1024-query batch (serve) or
// one build. The gated op latency is the run's 10th percentile: the host's
// neighbours only ever add time, in bursts, so the fast tenth of the ops
// shows the code's own cost and repeats across runs about twice as well as
// the median does. The median and the tail are printed beside it.
//
// A run is a few cycles of set-up followed by a timed segment, not one
// set-up and one long loop: the neighbours' load changes in phases of tens
// of seconds, and spreading the set-ups over the run lets their median
// sample several phases, as the op percentile does.
//
// Output, on stdout: a host record, then one JSON line per metric and a
// few informational lines (among them the op latency median and tail and
// the throughput, printed but not gated: on a shared host they follow the
// neighbours), then — last — the result object
//   {"correct":..., "attempted":..., "failed":..., "metrics":{...}}
// whose metrics are the end-to-end set (--trace 0) or the per-layer set
// (--trace 1). The two sets have the same names on every workload; a
// count for a layer a workload never crosses (the simulator outside
// build) reads 0. A traced run also writes a Chrome trace of the
// benchmark's own spans to --trace-dir.
//
// Exit codes: 0 all checks passed, 1 a check failed or the run threw,
// 2 the binary was built with assertions enabled or without optimization
// (numbers from such a build are not reported).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "congest/accounting.hpp"
#include "core/oracle_registry.hpp"
#include "dynamics/incremental.hpp"
#include "graph/generators.hpp"
#include "graph/graph_io.hpp"
#include "graph/shortest_paths.hpp"
#include "serve/mmap_store.hpp"
#include "serve/query_service.hpp"
#include "serve/sketch_store.hpp"
#include "serve/workload.hpp"
#include "sketch/hierarchy.hpp"
#include "sketch/tz_centralized.hpp"
#include "sketch/tz_label.hpp"
#include "span_recorder.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace dsketch;
using ladder::Phase;
using ladder::SpanRecorder;

// ---- workload constants ----------------------------------------------------

constexpr NodeId kServeN = 100'000;
constexpr std::uint32_t kServeK = 4;
constexpr std::size_t kUniformPairs = std::size_t{1} << 20;

constexpr NodeId kBuildN = 1024;
constexpr std::uint32_t kBuildK = 4;

constexpr double kAvgDegree = 12.0;
constexpr WeightSpec kWeights{1, 12};
constexpr std::uint64_t kTopologySeed = 1;
constexpr std::uint64_t kBuildSeed = 1;  // the registry's default --seed
constexpr std::size_t kTimedLanes = 1;  ///< service and simulator lanes
constexpr std::size_t kPoolLanes = 4;   ///< untimed work, the ladder's top rung
constexpr std::size_t kShards = 16;
constexpr std::size_t kCachePerShard = 4096;
constexpr std::size_t kBatch = 1024;
/// Set-up cycles per run; each is followed by 1/reps of --seconds of ops.
constexpr int kServeSetupReps = 3;
constexpr int kBuildSetupReps = 9;
constexpr std::size_t kServeProbeSources = 128;  ///< build probes every node
constexpr double kOpPercentile = 10;
constexpr std::size_t kLadderPairs = std::size_t{1} << 17;
constexpr std::size_t kColdPairs = 4096;

// ---- run context -------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string workdir;
  std::string trace_dir;
};

/// What one run measured. Vectors hold one sample per set-up repetition
/// or per operation; the report takes medians and percentiles.
struct Samples {
  std::vector<double> setup_s, gen_ms, ingest_ms, central_ms, pack_ms,
      save_ms, load_ms;
  std::vector<double> op_ms;         ///< untraced operations
  std::vector<double> traced_op_ms;  ///< traced operations (--trace 1)
  double op_items = 0;               ///< items done by the untraced ops
};

/// How a QueryService spread its work, from its public stats.
struct ServiceShape {
  double hit_rate = 0;
  double slice_busy_share = 0;  ///< sum of slice time / (lanes x wall time)
  double shard_imbalance = 0;   ///< busiest shard's queries / the mean
};

ServiceShape service_shape(const QueryServiceStats& st, std::size_t lanes) {
  ServiceShape s;
  s.hit_rate = st.hit_rate;
  const double slice_us =
      static_cast<double>(st.slice_latency_us.count) * st.slice_latency_us.mean;
  if (st.wall_seconds > 0) {
    s.slice_busy_share =
        slice_us / (static_cast<double>(lanes) * st.wall_seconds * 1e6);
  }
  double max_q = 0, sum_q = 0;
  for (const std::uint64_t q : st.shard_queries) {
    max_q = std::max(max_q, static_cast<double>(q));
    sum_q += static_cast<double>(q);
  }
  if (sum_q > 0) {
    s.shard_imbalance =
        max_q * static_cast<double>(st.shard_queries.size()) / sum_q;
  }
  return s;
}

/// Serving-ladder results, filled only by traced runs.
struct LadderResult {
  double tz_query_ns = 0, store_query_ns = 0, lane1_ns = 0, lane4_ns = 0;
  double mmap_open_ms = 0, mmap_warm_ns = 0, mmap_cold_ns = 0, swap_us = 0;
  ServiceShape lane4;
};

/// Everything reported besides the sample vectors; fields a workload does
/// not touch stay 0.
struct Outcome {
  double store_bytes_per_node = 0;
  double mean_stretch = 0;
  double bunch_entries_per_node = 0;
  SimStats congest;
  /// The workload's own service over the timed loop; build, which serves
  /// no traffic, reports the ladder's 4-lane rung instead.
  ServiceShape service;
  LadderResult ladder;
};

struct Ctx {
  Options opt;
  SpanRecorder spans;
  ThreadPool pool{kPoolLanes};
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t ops_run = 0;  ///< id of the last timed op

  /// Counts one checked operation; a failure is logged to stderr.
  void check(bool ok, const char* what) {
    ++attempted;
    if (ok) return;
    if (++failed <= 10) std::fprintf(stderr, "ladder: check failed: %s\n", what);
  }

  std::string path(const char* file) const { return opt.workdir + "/" + file; }

  /// Per-purpose input seed derived from --seed.
  std::uint64_t input_seed(std::uint64_t salt) const {
    std::uint64_t state = opt.seed * 0x9e3779b97f4a7c15ULL + salt;
    return splitmix64(state);
  }
};

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50); }

double file_bytes(const std::string& path) {
  return static_cast<double>(std::filesystem::file_size(path));
}

// ---- host record and provenance ------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string proc_field(const char* file, const char* key) {
  std::ifstream in(file);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::size_t start = line.find_first_not_of(" \t", colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "unknown";
}

#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif
#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif
#if defined(__clang__)
constexpr const char* kCompiler = "clang " __VERSION__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = __VERSION__;
#endif

void print_host_record(const Options& opt) {
  std::printf(
      "{\"host\":{\"nproc\":%ld,\"hardware_concurrency\":%u,"
      "\"cpu_model\":\"%s\",\"mem_total\":\"%s\",\"compiler\":\"%s\","
      "\"ndebug\":%s,\"optimized\":%s},\"workload\":\"%s\",\"seed\":%llu,"
      "\"seconds\":%g,\"trace\":%s}\n",
      sysconf(_SC_NPROCESSORS_ONLN), std::thread::hardware_concurrency(),
      json_escape(proc_field("/proc/cpuinfo", "model name")).c_str(),
      json_escape(proc_field("/proc/meminfo", "MemTotal")).c_str(),
      json_escape(kCompiler).c_str(), kNdebug ? "true" : "false",
      kOptimized ? "true" : "false", json_escape(opt.workload).c_str(),
      static_cast<unsigned long long>(opt.seed), opt.seconds,
      opt.trace ? "true" : "false");
  std::fflush(stdout);
}

// ---- inputs ------------------------------------------------------------------

/// The build's hierarchy, sampled exactly as the registry's "tz" build
/// samples it, so centralized labels equal the in-network ones.
Hierarchy tz_hierarchy(NodeId n, std::uint32_t k) {
  Hierarchy h = Hierarchy::sample(n, k, kBuildSeed);
  for (std::uint64_t bump = 1; !h.top_level_nonempty(); ++bump) {
    h = Hierarchy::sample(n, k, kBuildSeed + bump);
  }
  return h;
}

void write_snap(const std::string& path, const Graph& g) {
  std::string text = "# ladder input: undirected, u v w\n";
  text.reserve(g.num_edges() * 20);
  for (const Edge& e : g.edges()) {
    text += std::to_string(e.u) + '\t' + std::to_string(e.v) + '\t' +
            std::to_string(e.weight) + '\n';
  }
  std::ofstream out(path, std::ios::binary);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

/// The workload's fixed ER topology.
Graph generate(Ctx& c, NodeId n, Samples& s) {
  Phase p(c.spans, "graph_gen", 0, &s.gen_ms);
  return erdos_renyi(n, kAvgDegree / (n - 1), kWeights, kTopologySeed);
}

/// Writes the topology as a SNAP edge list, the input the build workload
/// ingests like `dsketch build` does.
std::string write_input(Ctx& c, NodeId n, Samples& s) {
  const Graph g = generate(c, n, s);
  const std::string path = c.path("graph.snap");
  Phase p(c.spans, "snap_write", 0);
  write_snap(path, g);
  return path;
}

Graph ingest(Ctx& c, const std::string& path, Samples& s, std::uint64_t op) {
  Phase p(c.spans, "ingest", op, &s.ingest_ms);
  return ingest_edge_list_file(path, IngestFormat::kSnap);
}

std::vector<QueryPair> uniform_pairs(NodeId n, std::size_t count,
                                     std::uint64_t seed) {
  WorkloadConfig cfg;
  cfg.kind = WorkloadConfig::Kind::kUniform;
  cfg.seed = seed;
  return WorkloadGenerator(n, cfg).batch(count);
}

QueryServiceConfig service_config(std::size_t lanes) {
  QueryServiceConfig cfg;
  cfg.shards = kShards;
  cfg.threads = lanes;
  cfg.cache_capacity = kCachePerShard;
  return cfg;
}

/// The Lemma 3.2 query over the centralized labels, for every pair: the
/// reference every served answer is compared against.
std::vector<Dist> reference_answers(Ctx& c, const LabelArena& labels,
                                    std::span<const QueryPair> pairs) {
  Phase p(c.spans, "reference", 0);
  std::vector<Dist> ref(pairs.size());
  constexpr std::size_t kChunk = 4096;
  c.pool.parallel_for((pairs.size() + kChunk - 1) / kChunk,
                      [&](std::size_t chunk) {
                        const std::size_t end =
                            std::min(pairs.size(), (chunk + 1) * kChunk);
                        for (std::size_t i = chunk * kChunk; i < end; ++i) {
                          ref[i] = tz_query(labels.view(pairs[i].first),
                                            labels.view(pairs[i].second));
                        }
                      });
  return ref;
}

bool same_answers(std::span<const Dist> a, std::span<const Dist> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Dist)) == 0;
}

// ---- publish and open --------------------------------------------------------

void pack_and_save(Ctx& c, const DistanceOracle& built,
                   const std::string& path, Samples& s, std::uint64_t op) {
  SketchStore packed;
  {
    Phase p(c.spans, "pack", op, &s.pack_ms);
    packed = SketchStore::from_oracle(built);
  }
  Phase p(c.spans, "save", op, &s.save_ms);
  packed.save_file(path, StoreFormat::kV3);
}

struct Opened {
  std::shared_ptr<const DistanceOracle> store;
  std::unique_ptr<QueryService> service;
};

/// Opening a store: load_oracle up to the first answered batch.
Opened open_store(Ctx& c, const std::string& path,
                  std::span<const QueryPair> first, std::span<Dist> answers,
                  Samples& s, std::uint64_t op) {
  Opened o;
  Phase open(c.spans, "open", op);
  {
    Phase p(c.spans, "load", op, &s.load_ms);
    o.store = std::shared_ptr<const DistanceOracle>(
        SketchStore::load_oracle(path));
  }
  o.service =
      std::make_unique<QueryService>(o.store, service_config(kTimedLanes));
  o.service->query_batch(first, answers);
  return o;
}

// ---- checks against exact distances -----------------------------------------

/// Exact distances from `count` seed-drawn sources (every node when count
/// is 0) to every node, against the oracle: no answer may be below the
/// true distance or above stretch 2k-1. Returns the mean stretch over the
/// probed pairs.
double probe_stretch(Ctx& c, const Graph& g, const DistanceOracle& oracle,
                     std::uint32_t k, std::size_t count) {
  Phase p(c.spans, "probe", 0);
  std::vector<NodeId> sources(count == 0 ? g.num_nodes() : count);
  if (count == 0) {
    std::iota(sources.begin(), sources.end(), NodeId{0});
  } else {
    Rng rng(c.input_seed(4));
    for (NodeId& src : sources) {
      src = static_cast<NodeId>(rng.below(g.num_nodes()));
    }
  }
  const double bound = 2.0 * k - 1.0;
  std::vector<double> sums(sources.size(), 0.0);
  std::vector<std::uint64_t> counts(sources.size(), 0);
  std::vector<char> ok(sources.size(), 1);
  c.pool.for_each_dynamic(sources.size(), [&](std::size_t, std::size_t i) {
    const std::vector<Dist> exact = dijkstra(g, sources[i]);
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      if (t == sources[i] || exact[t] == kInfDist) continue;
      const Dist est = oracle.query(sources[i], t);
      const double stretch =
          static_cast<double>(est) / static_cast<double>(exact[t]);
      if (est < exact[t] || est == kInfDist || stretch > bound) ok[i] = 0;
      sums[i] += stretch;
      ++counts[i];
    }
  });
  double sum = 0;
  std::uint64_t pairs = 0;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    c.check(ok[i] != 0, "probe: no underestimate, stretch within 2k-1");
    sum += sums[i];
    pairs += counts[i];
  }
  return pairs == 0 ? 0.0 : sum / static_cast<double>(pairs);
}

// ---- the operation loop -------------------------------------------------------

struct OpResult {
  double ms = 0;     ///< wall time of the operation's timed region
  double items = 0;  ///< items it completed (queries or messages)
};

/// One timed segment: runs op(id) until `seconds` of loop wall time have
/// passed and at least one op ran; ids continue across a run's segments.
/// In a traced run, passes of `pass_ops` operations alternate between
/// recorded and unrecorded, so the run measures its own tracing overhead;
/// only unrecorded operations feed the end-to-end numbers.
template <typename Op>
void run_ops(Ctx& c, Samples& s, std::size_t pass_ops, double seconds,
             Op&& op) {
  const double start = now_s();
  for (std::uint64_t i = 0; i == 0 || now_s() - start < seconds; ++i) {
    const bool traced = c.opt.trace && (i / pass_ops) % 2 == 0;
    c.spans.set_enabled(traced);
    const OpResult r = op(++c.ops_run);
    if (traced) {
      s.traced_op_ms.push_back(r.ms);
    } else {
      s.op_ms.push_back(r.ms);
      s.op_items += r.items;
    }
  }
  c.spans.set_enabled(c.opt.trace);
}

// ---- the serving ladder (traced runs) --------------------------------------------

/// Runs `fn` over `pairs` once to warm caches, then times three passes and
/// returns the median ns/query; the answers of the last pass land in `out`.
template <typename Fn>
double ns_per_query(std::span<const QueryPair> pairs, std::vector<Dist>& out,
                    Fn&& fn) {
  out.assign(pairs.size(), 0);
  fn(pairs, std::span<Dist>(out));
  std::vector<double> ns;
  for (int pass = 0; pass < 3; ++pass) {
    const double t0 = now_s();
    fn(pairs, std::span<Dist>(out));
    ns.push_back((now_s() - t0) * 1e9 / static_cast<double>(pairs.size()));
  }
  return median(std::move(ns));
}

/// Replays one fixed pair set through every public serving entry point in
/// turn, one thread each except the 4-lane rung: the label merge, the heap
/// store, a 1-lane and a 4-lane QueryService, and the mmap store warm and
/// cold. Every rung must return the merge's answers.
LadderResult run_ladder(Ctx& c, const LabelArena& labels,
                        std::shared_ptr<const DistanceOracle> store,
                        const std::string& store_path,
                        std::span<const QueryPair> stream) {
  Phase ladder_span(c.spans, "ladder", 0);
  LadderResult r;
  const std::span<const QueryPair> pairs =
      stream.first(std::min(stream.size(), kLadderPairs) / kBatch * kBatch);
  std::vector<Dist> ref, got;
  {
    Phase p(c.spans, "ladder_tz_query", 0);
    r.tz_query_ns = ns_per_query(pairs, ref, [&](auto ps, auto out) {
      for (std::size_t i = 0; i < ps.size(); ++i) {
        out[i] = tz_query(labels.view(ps[i].first), labels.view(ps[i].second));
      }
    });
  }
  {
    Phase p(c.spans, "ladder_store_query", 0);
    r.store_query_ns = ns_per_query(pairs, got, [&](auto ps, auto out) {
      for (std::size_t i = 0; i < ps.size(); ++i) {
        out[i] = store->query(ps[i].first, ps[i].second);
      }
    });
    c.check(got == ref, "ladder: heap store answers equal the merge");
  }
  auto batched = [](QueryService& svc) {
    return [&svc](std::span<const QueryPair> ps, std::span<Dist> out) {
      for (std::size_t b = 0; b < ps.size(); b += kBatch) {
        svc.query_batch(ps.subspan(b, kBatch), out.subspan(b, kBatch));
      }
    };
  };
  {
    Phase p(c.spans, "ladder_lane1", 0);
    QueryService svc(store, service_config(1));
    r.lane1_ns = ns_per_query(pairs, got, batched(svc));
    c.check(got == ref, "ladder: 1-lane service answers equal the merge");
  }
  std::shared_ptr<const MmapSketchStore> mmap_store;
  {
    Phase p(c.spans, "ladder_lane4", 0);
    QueryService svc(store, service_config(kPoolLanes));
    r.lane4_ns = ns_per_query(pairs, got, batched(svc));
    c.check(got == ref, "ladder: 4-lane service answers equal the merge");
    r.lane4 = service_shape(svc.stats(), kPoolLanes);

    std::vector<double> open_ms;
    for (int i = 0; i < 5; ++i) {
      mmap_store.reset();
      Phase open(c.spans, "ladder_mmap_open", 0, &open_ms);
      mmap_store = MmapSketchStore::open(store_path);
    }
    r.mmap_open_ms = median(open_ms);

    // Hot swap between two oracles over the same labels; each swap is
    // followed by one answered batch, so every swap replaces a serving
    // generation and drops the shard caches it warmed.
    std::vector<double> swap_us;
    std::vector<Dist> answers(kBatch);
    for (int i = 0; i < 64; ++i) {
      std::shared_ptr<const DistanceOracle> next = store;
      if (i % 2 == 0) next = mmap_store;
      const double t0 = now_s();
      svc.swap(std::move(next));
      swap_us.push_back((now_s() - t0) * 1e6);
      svc.query_batch(pairs.first(kBatch), answers);
    }
    r.swap_us = median(swap_us);
    c.check(std::equal(answers.begin(), answers.end(), ref.begin()),
            "ladder: answers after hot swaps equal the merge");
  }
  const MmapSketchStore& mm = *mmap_store;
  auto direct = [&mm](std::span<const QueryPair> ps, std::span<Dist> out) {
    for (std::size_t i = 0; i < ps.size(); ++i) {
      out[i] = mm.query(ps[i].first, ps[i].second);
    }
  };
  {
    Phase p(c.spans, "ladder_mmap_warm", 0);
    r.mmap_warm_ns = ns_per_query(pairs, got, direct);
    c.check(got == ref, "ladder: warm mmap answers equal the merge");
  }
  {
    // Cold: the mapping's resident pages are dropped before each timed
    // pass, so every first touch of a record faults it back in.
    Phase p(c.spans, "ladder_mmap_cold", 0);
    const auto cold = pairs.first(std::min(pairs.size(), kColdPairs));
    got.assign(cold.size(), 0);
    std::vector<double> ns;
    for (int pass = 0; pass < 3; ++pass) {
      mm.drop_pages();
      const double t0 = now_s();
      direct(cold, std::span<Dist>(got));
      ns.push_back((now_s() - t0) * 1e9 / static_cast<double>(cold.size()));
    }
    r.mmap_cold_ns = median(std::move(ns));
    c.check(std::equal(got.begin(), got.end(), ref.begin()),
            "ladder: cold mmap answers equal the merge");
  }
  return r;
}

// ---- serve-uniform-100k ------------------------------------------------------

struct ServeState {
  Graph g;
  std::shared_ptr<const TzLabelOracle> labels;
  std::vector<QueryPair> pairs;
  Opened opened;
  double store_bytes = 0;
};

std::unique_ptr<ServeState> serve_setup(Ctx& c, Samples& s) {
  const double t0 = now_s();
  auto st = std::make_unique<ServeState>();
  {
    Phase setup(c.spans, "setup", 0);
    st->g = generate(c, kServeN, s);
    const NodeId n = st->g.num_nodes();
    LabelArena arena;
    {
      Phase p(c.spans, "central_build", 0, &s.central_ms);
      arena = build_tz_centralized(st->g, tz_hierarchy(n, kServeK), &c.pool);
    }
    st->labels =
        std::make_shared<const TzLabelOracle>(std::move(arena), kServeK);
    const std::string store_path = c.path("serve.store");
    pack_and_save(c, *st->labels, store_path, s, 0);
    st->store_bytes = file_bytes(store_path);
    {
      Phase p(c.spans, "pairs", 0);
      st->pairs = uniform_pairs(n, kUniformPairs, c.input_seed(2));
    }
    std::vector<Dist> answers(kBatch);
    st->opened = open_store(c, store_path,
                            std::span(st->pairs).first(kBatch), answers, s, 0);
  }
  s.setup_s.push_back(now_s() - t0);
  return st;
}

Outcome run_serve(Ctx& c, Samples& s) {
  std::unique_ptr<ServeState> st;
  std::vector<Dist> ref;
  std::vector<Dist> answers(kBatch);
  std::size_t cursor = 0;
  for (int rep = 0; rep < kServeSetupReps; ++rep) {
    st.reset();
    st = serve_setup(c, s);
    // Every set-up builds the same labels; the first one's answers are
    // the reference every later store is checked against too.
    if (rep == 0) ref = reference_answers(c, st->labels->labels(), st->pairs);
    QueryService& service = *st->opened.service;
    const std::size_t batches = st->pairs.size() / kBatch;
    auto batch_pairs = [&](std::size_t b) {
      return std::span<const QueryPair>(st->pairs).subspan(b * kBatch, kBatch);
    };
    auto batch_ref = [&](std::size_t b) {
      return std::span<const Dist>(ref).subspan(b * kBatch, kBatch);
    };

    // One untimed pass over the whole stream checks every answer and
    // leaves the caches as a long-running service would have them.
    {
      Phase p(c.spans, "verify_pass", 0);
      bool ok = true;
      for (std::size_t b = 0; b < batches; ++b) {
        service.query_batch(batch_pairs(b), answers);
        ok = ok && same_answers(answers, batch_ref(b));
      }
      c.check(ok, "serve: full pass equals the centralized labels' answers");
    }
    service.reset_stats();

    run_ops(c, s, 64, c.opt.seconds / kServeSetupReps, [&](std::uint64_t op) {
      const double t0 = now_s();
      {
        Phase p(c.spans, "batch", op);
        service.query_batch(batch_pairs(cursor), answers);
      }
      const double ms = (now_s() - t0) * 1e3;
      c.check(same_answers(answers, batch_ref(cursor)),
              "serve: batch equals the full pass");
      cursor = (cursor + 1) % batches;
      return OpResult{ms, static_cast<double>(kBatch)};
    });
  }
  Outcome out;
  out.service = service_shape(st->opened.service->stats(), kTimedLanes);
  out.store_bytes_per_node =
      st->store_bytes / static_cast<double>(st->g.num_nodes());
  out.bunch_entries_per_node =
      static_cast<double>(st->labels->labels().total_entries()) /
      static_cast<double>(st->g.num_nodes());
  out.mean_stretch =
      probe_stretch(c, st->g, *st->opened.store, kServeK, kServeProbeSources);
  if (c.opt.trace) {
    out.ladder = run_ladder(c, st->labels->labels(), st->opened.store,
                            c.path("serve.store"), st->pairs);
  }
  return out;
}

// ---- build-tz-1k ---------------------------------------------------------------

Outcome run_build(Ctx& c, Samples& s) {
  const FlagSet flags({{"k", std::to_string(kBuildK)},
                       {"echo", "true"},
                       {"sim-threads", std::to_string(kTimedLanes)},
                       {"seed", std::to_string(kBuildSeed)}});
  const std::string store_path = c.path("build.store");
  std::string snap;
  Graph g;
  LabelArena central;
  std::vector<QueryPair> check_pairs;
  std::vector<Dist> ref;
  SimStats cost;
  Opened opened;
  auto build_once = [&](std::uint64_t op) {
    const double t0 = now_s();
    SimStats this_cost;
    {
      Phase p(c.spans, "build", op);
      const Graph input = ingest(c, snap, s, op);
      std::unique_ptr<DistanceOracle> built;
      {
        Phase b(c.spans, "congest_build", op);
        built = OracleRegistry::instance().build("tz", input, flags);
      }
      this_cost = *built->build_cost();
      pack_and_save(c, *built, store_path, s, op);
    }
    const double ms = (now_s() - t0) * 1e3;
    if (op == 0) cost = this_cost;
    c.check(!this_cost.hit_round_limit && this_cost.rounds == cost.rounds &&
                this_cost.messages == cost.messages &&
                this_cost.words == cost.words,
            "build: the simulator run is deterministic and completes");
    // Untimed: open what was saved and answer the check batch from it.
    std::vector<Dist> answers(kBatch);
    opened = Opened{};
    opened = open_store(c, store_path, check_pairs, answers, s, op);
    c.check(same_answers(answers, ref),
            "build: in-network labels answer like the centralized ones");
    return OpResult{ms, static_cast<double>(this_cost.messages)};
  };

  // Set-up: the input file; the reference every build is checked against
  // (the centralized construction over the hierarchy the registry build
  // samples); and one untimed build, after which the timed builds find
  // the allocator and page cache as a long-running builder would, and
  // whose simulator cost every timed build must repeat exactly.
  for (int rep = 0; rep < kBuildSetupReps; ++rep) {
    const double t0 = now_s();
    {
      Phase setup(c.spans, "setup", 0);
      snap = write_input(c, kBuildN, s);
      g = ingest(c, snap, s, 0);
      {
        Phase p(c.spans, "central_build", 0, &s.central_ms);
        central = build_tz_centralized(
            g, tz_hierarchy(g.num_nodes(), kBuildK), &c.pool);
      }
      check_pairs = uniform_pairs(g.num_nodes(), kBatch, c.input_seed(2));
      ref = reference_answers(c, central, check_pairs);
      build_once(0);
    }
    s.setup_s.push_back(now_s() - t0);
    run_ops(c, s, 1, c.opt.seconds / kBuildSetupReps, build_once);
  }

  Outcome out;
  out.congest = cost;
  out.store_bytes_per_node =
      file_bytes(store_path) / static_cast<double>(g.num_nodes());
  out.bunch_entries_per_node = static_cast<double>(central.total_entries()) /
                               static_cast<double>(g.num_nodes());
  out.mean_stretch = probe_stretch(c, g, *opened.store, kBuildK, 0);
  if (c.opt.trace) {
    const std::vector<QueryPair> pairs =
        uniform_pairs(g.num_nodes(), kLadderPairs, c.input_seed(5));
    out.ladder = run_ladder(c, central, opened.store, store_path, pairs);
    out.service = out.ladder.lane4;
  }
  return out;
}

// ---- report -----------------------------------------------------------------------

struct Metric {
  const char* name;
  const char* unit;
  double value;
};

void print_metric_line(const char* kind, const Metric& m) {
  std::printf("{\"metric\":\"%s\",\"kind\":\"%s\",\"value\":%.10g,"
              "\"unit\":\"%s\"}\n",
              m.name, kind, m.value, m.unit);
}

/// Items (queries or simulated messages) per second over the untraced ops'
/// timed regions.
double items_per_s(const Samples& s) {
  double op_s = 0;
  for (const double ms : s.op_ms) op_s += ms / 1e3;
  return op_s > 0 ? s.op_items / op_s : 0;
}

std::vector<Metric> end_to_end_metrics(const Samples& s, const Outcome& o,
                                       const rusage& ru) {
  return {
      {"setup_s", "s", median(s.setup_s)},
      {"op_p10_ms", "ms", percentile(s.op_ms, kOpPercentile)},
      {"peak_rss_mb", "MB", static_cast<double>(ru.ru_maxrss) / 1024.0},
      {"store_bytes_per_node", "B", o.store_bytes_per_node},
      {"mean_stretch", "ratio", o.mean_stretch},
  };
}

std::vector<Metric> per_layer_metrics(const Samples& s, const Outcome& o,
                                      const rusage& ru) {
  const LadderResult& l = o.ladder;
  const double untraced = median(s.op_ms);
  const double overhead =
      untraced > 0 ? (median(s.traced_op_ms) / untraced - 1.0) * 100.0 : 0;
  return {
      {"graph.gen_ms", "ms", median(s.gen_ms)},
      {"graph.ingest_ms", "ms", median(s.ingest_ms)},
      {"sketch.central_build_ms", "ms", median(s.central_ms)},
      {"sketch.bunch_entries_per_node", "count", o.bunch_entries_per_node},
      {"sketch.tz_query_ns", "ns", l.tz_query_ns},
      {"serve.store_query_ns", "ns", l.store_query_ns},
      {"serve.lane1_ns_per_query", "ns", l.lane1_ns},
      {"serve.lane4_ns_per_query", "ns", l.lane4_ns},
      {"serve.cache_hit_rate", "ratio", o.service.hit_rate},
      {"serve.slice_busy_share", "ratio", o.service.slice_busy_share},
      {"serve.shard_imbalance", "ratio", o.service.shard_imbalance},
      {"serve.pack_ms", "ms", median(s.pack_ms)},
      {"serve.save_ms", "ms", median(s.save_ms)},
      {"serve.load_ms", "ms", median(s.load_ms)},
      {"serve.mmap_open_ms", "ms", l.mmap_open_ms},
      {"serve.mmap_warm_query_ns", "ns", l.mmap_warm_ns},
      {"serve.mmap_cold_query_ns", "ns", l.mmap_cold_ns},
      {"serve.swap_us", "us", l.swap_us},
      {"congest.rounds", "count", static_cast<double>(o.congest.rounds)},
      {"congest.messages", "count", static_cast<double>(o.congest.messages)},
      {"congest.words", "count", static_cast<double>(o.congest.words)},
      {"congest.node_steps", "count",
       static_cast<double>(o.congest.node_steps)},
      {"congest.max_outbox", "count",
       static_cast<double>(o.congest.max_outbox)},
      {"proc.minor_faults", "count", static_cast<double>(ru.ru_minflt)},
      {"trace.overhead_pct", "%", overhead},
  };
}

void print_result(const Ctx& c, const std::vector<Metric>& metrics) {
  std::string body;
  char buf[256];
  for (const Metric& m : metrics) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"value\":%.10g,\"unit\":\"%s\"}",
                  body.empty() ? "" : ",", m.name, m.value, m.unit);
    body += buf;
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              c.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(c.attempted),
              static_cast<unsigned long long>(c.failed), body.c_str());
  std::fflush(stdout);
}

Options parse_options(int argc, char** argv) {
  const FlagSet flags(argc, argv);
  Options opt;
  opt.workload = flags.require("workload");
  opt.seed = static_cast<std::uint64_t>(std::stoull(flags.require("seed")));
  opt.seconds = std::stod(flags.require("seconds"));
  const std::string trace = flags.require("trace");
  if (trace != "0" && trace != "1") {
    throw std::runtime_error("--trace must be 0 or 1");
  }
  opt.trace = trace == "1";
  opt.workdir = flags.require("workdir");
  opt.trace_dir = flags.get("trace-dir", opt.workdir);
  if (opt.seconds <= 0) throw std::runtime_error("--seconds must be > 0");
  return opt;
}

int run(int argc, char** argv) {
  Ctx c;
  c.opt = parse_options(argc, argv);
  print_host_record(c.opt);
  if (!kNdebug || !kOptimized) {
    std::fprintf(stderr,
                 "ladder: refusing to report: built with assertions enabled "
                 "or without optimization (configure with "
                 "-DCMAKE_BUILD_TYPE=Release)\n");
    return 2;
  }
  c.spans.set_enabled(c.opt.trace);

  Samples s;
  Outcome o;
  const std::string& w = c.opt.workload;
  if (w == "serve-uniform-100k") {
    o = run_serve(c, s);
  } else if (w == "build-tz-1k") {
    o = run_build(c, s);
  } else {
    throw std::runtime_error("unknown workload: " + w);
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const std::vector<Metric> e2e = end_to_end_metrics(s, o, ru);
  const std::vector<Metric> layers = per_layer_metrics(s, o, ru);
  if (c.opt.trace) c.check(c.spans.nesting_ok(), "trace: spans nest");
  // Printed, not gated: the median, the tail and the mean-based throughput
  // follow the host's neighbours more than the code (see the README).
  std::printf("{\"info\":\"ops\",\"untraced\":%zu,\"traced\":%zu,"
              "\"op_p50_ms\":%.6g,\"op_p90_ms\":%.6g,\"op_p99_ms\":%.6g,"
              "\"items_per_s\":%.6g,"
              "\"attempted\":%llu,\"failed\":%llu,\"failed_share\":%.6g}\n",
              s.op_ms.size(), s.traced_op_ms.size(), median(s.op_ms),
              percentile(s.op_ms, 90), percentile(s.op_ms, 99), items_per_s(s),
              static_cast<unsigned long long>(c.attempted),
              static_cast<unsigned long long>(c.failed),
              static_cast<double>(c.failed) /
                  static_cast<double>(std::max<std::uint64_t>(1, c.attempted)));
  for (const Metric& m : e2e) print_metric_line("end_to_end", m);
  if (c.opt.trace) {
    for (const auto& [name, t] : c.spans.self_times()) {
      std::printf("{\"span\":\"%s\",\"count\":%llu,\"total_ms\":%.6f,"
                  "\"self_ms\":%.6f}\n",
                  name.c_str(), static_cast<unsigned long long>(t.count),
                  t.total_ms, t.self_ms);
    }
    std::filesystem::create_directories(c.opt.trace_dir);
    const std::string trace_path = c.opt.trace_dir + "/" + w + "-seed" +
                                   std::to_string(c.opt.seed) + ".json";
    c.spans.write_chrome_trace(trace_path);
    std::printf("{\"info\":\"trace\",\"path\":\"%s\",\"spans\":%zu}\n",
                json_escape(trace_path).c_str(), c.spans.size());
    for (const Metric& m : layers) print_metric_line("per_layer", m);
  }
  print_result(c, c.opt.trace ? layers : e2e);
  return c.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ladder: %s\n", e.what());
    return 1;
  }
}
