#include "serve/query_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include "baselines/exact_oracle.hpp"
#include "baselines/landmark.hpp"
#include "graph/generators.hpp"
#include "obs/trace.hpp"
#include "obs/trace_io.hpp"
#include "serve/sketch_store.hpp"
#include "serve/workload.hpp"
#include "util/lru_cache.hpp"

namespace dsketch {
namespace {

/// Path 0-1-...-(n-1), every edge weight `w`: exact distances are
/// w * |u - v|, so two oracles with different `w` disagree on every
/// non-trivial pair — ideal for detecting a torn or stale-cache answer.
Graph path_graph(NodeId n, Weight w) {
  std::vector<Edge> edges;
  for (NodeId u = 0; u + 1 < n; ++u) edges.push_back({u, u + 1, w});
  return Graph::from_edges(n, edges);
}

SketchStore make_store(Scheme scheme, NodeId n = 90) {
  const Graph g = erdos_renyi(n, 0.08, {1, 9}, 23);
  BuildConfig cfg;
  cfg.scheme = scheme;
  cfg.k = 2;
  cfg.epsilon = 0.25;
  return SketchStore(g, cfg);
}

std::vector<QueryService::Pair> all_pairs_sample(NodeId n) {
  std::vector<QueryService::Pair> pairs;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u; v < n; v += 7) pairs.emplace_back(u, v);
  }
  return pairs;
}

TEST(QueryService, BatchAnswersMatchStoreForEveryScheme) {
  for (const Scheme scheme : {Scheme::kThorupZwick, Scheme::kSlack,
                              Scheme::kCdg, Scheme::kGraceful}) {
    const SketchStore store = make_store(scheme);
    QueryService service(store, {.shards = 4, .threads = 2});
    const auto pairs = all_pairs_sample(store.num_nodes());
    std::vector<Dist> answers(pairs.size(), 0);
    service.query_batch(pairs, answers);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      EXPECT_EQ(answers[i], store.query(pairs[i].first, pairs[i].second))
          << "scheme " << static_cast<int>(scheme) << " pair " << i;
    }
  }
}

TEST(QueryService, AnswersIndependentOfShardAndThreadCount) {
  const SketchStore store = make_store(Scheme::kThorupZwick);
  const auto pairs = all_pairs_sample(store.num_nodes());
  std::vector<Dist> baseline(pairs.size(), 0);
  QueryService reference(store, {.shards = 1, .threads = 1});
  reference.query_batch(pairs, baseline);
  for (const std::size_t shards : {2, 3, 8}) {
    for (const std::size_t threads : {1, 4}) {
      QueryService service(store, {.shards = shards,
                                   .threads = threads,
                                   .cache_capacity = 64});
      std::vector<Dist> answers(pairs.size(), 0);
      service.query_batch(pairs, answers);
      EXPECT_EQ(answers, baseline) << shards << " shards, " << threads
                                   << " threads";
    }
  }
}

TEST(QueryService, CacheHitsOnRepeatedPairsAndStatsAddUp) {
  const SketchStore store = make_store(Scheme::kThorupZwick);
  QueryService service(store,
                       {.shards = 4, .threads = 1, .cache_capacity = 1024});
  std::vector<QueryService::Pair> pairs;
  for (int rep = 0; rep < 5; ++rep) {
    for (NodeId u = 0; u < 20; ++u) pairs.emplace_back(u, u + 1);
  }
  std::vector<Dist> answers(pairs.size(), 0);
  service.query_batch(pairs, answers);
  const QueryServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries, pairs.size());
  EXPECT_EQ(stats.batches, 1u);
  // 20 distinct pairs queried 5x: at least the 4 repeat rounds must hit.
  EXPECT_GE(stats.cache_hits, 4u * 20u);
  EXPECT_GT(stats.hit_rate, 0.5);
  std::uint64_t per_shard = 0;
  for (const std::uint64_t q : stats.shard_queries) per_shard += q;
  EXPECT_EQ(per_shard, stats.queries);
  service.reset_stats();
  EXPECT_EQ(service.stats().queries, 0u);
}

TEST(QueryService, CachedAnswersRespectPairOrientation) {
  // The TZ query procedure is orientation-dependent (it probes p_i(u) in
  // B(v) before p_i(v) in B(u)), so query(u,v) and query(v,u) can settle
  // on different valid estimates. A cache keyed on the canonical pair
  // would serve one orientation's answer for the other; both orientations
  // must stay bit-identical to the store even with the cache hot.
  const SketchStore store = make_store(Scheme::kThorupZwick);
  QueryService service(store,
                       {.shards = 2, .threads = 1, .cache_capacity = 4096});
  for (int round = 0; round < 2; ++round) {  // second round hits the cache
    for (NodeId u = 0; u < store.num_nodes(); u += 2) {
      for (NodeId v = u + 1; v < store.num_nodes(); v += 3) {
        EXPECT_EQ(service.query(u, v), store.query(u, v));
        EXPECT_EQ(service.query(v, u), store.query(v, u));
      }
    }
  }
  EXPECT_GT(service.stats().cache_hits, 0u);
}

TEST(QueryService, SymmetricOracleCachesCanonically) {
  // Regression: the LRU used the ordered (u, v) key while shard routing
  // used the canonical one, so query(u, v) never warmed query(v, u) —
  // for a symmetric oracle the two orientations are the same answer and
  // must share one cache slot.
  const Graph g = erdos_renyi(80, 0.1, {1, 9}, 23);
  const LandmarkSketchSet oracle(g, 8, 5);
  ASSERT_TRUE(oracle.capabilities().symmetric);
  QueryService service(oracle,
                       {.shards = 4, .threads = 1, .cache_capacity = 4096});
  std::size_t pairs = 0;
  for (NodeId u = 0; u < g.num_nodes(); u += 3) {
    for (NodeId v = u + 1; v < g.num_nodes(); v += 5) {
      EXPECT_EQ(service.query(u, v), oracle.query(u, v));
      EXPECT_EQ(service.query(v, u), oracle.query(v, u));
      ++pairs;
    }
  }
  // Every reverse-orientation query must have hit the forward entry.
  EXPECT_EQ(service.stats().cache_hits, pairs);
}

TEST(QueryService, AsymmetricOracleKeepsOrderedKeys) {
  // The TZ pivot walk is orientation-dependent: caching canonically
  // would serve one orientation's answer for the other. The service
  // must keep ordered keys (reverse orientation = cache miss) and stay
  // bit-identical to the store.
  const SketchStore store = make_store(Scheme::kThorupZwick);
  ASSERT_FALSE(store.capabilities().symmetric);
  QueryService service(store,
                       {.shards = 4, .threads = 1, .cache_capacity = 4096});
  for (NodeId u = 0; u < store.num_nodes(); u += 4) {
    for (NodeId v = u + 1; v < store.num_nodes(); v += 5) {
      EXPECT_EQ(service.query(u, v), store.query(u, v));
      EXPECT_EQ(service.query(v, u), store.query(v, u));
    }
  }
  EXPECT_EQ(service.stats().cache_hits, 0u);
}

TEST(QueryService, SwapServesTheNewOracleAndInvalidatesCaches) {
  const auto o1 = std::make_shared<ExactOracle>(path_graph(64, 1));
  const auto o2 = std::make_shared<ExactOracle>(path_graph(64, 2));
  QueryService service(
      std::shared_ptr<const DistanceOracle>(o1),
      {.shards = 4, .threads = 1, .cache_capacity = 1024});
  EXPECT_EQ(service.generation(), 0u);
  EXPECT_EQ(service.query(0, 63), 63u);
  EXPECT_EQ(service.query(10, 20), 10u);

  const std::uint64_t generation =
      service.swap(std::shared_ptr<const DistanceOracle>(o2));
  EXPECT_EQ(generation, 1u);
  EXPECT_EQ(service.generation(), 1u);
  // The same pairs again: a stale cache would answer 63/10.
  EXPECT_EQ(service.query(0, 63), 126u);
  EXPECT_EQ(service.query(10, 20), 20u);

  const QueryServiceStats stats = service.stats();
  EXPECT_EQ(stats.swaps, 1u);
  EXPECT_EQ(stats.generation, 1u);
  EXPECT_GE(stats.cache_invalidations, 1u);

  // Swapping back re-serves o1's answers (no resurrected cache entries).
  service.swap(std::shared_ptr<const DistanceOracle>(o1));
  EXPECT_EQ(service.query(0, 63), 63u);
}

TEST(QueryService, ConcurrentSwapsNeverTearABatch) {
  // One serving thread streams batches while another hot-swaps between
  // two oracles that disagree on every pair. Invariants: every batch's
  // answers match exactly the oracle of the generation that served it
  // (generation parity identifies the oracle), and no slot is left
  // unwritten. Caches stay on, so generation invalidation is exercised
  // under fire too.
  const NodeId n = 128;
  const auto o1 = std::make_shared<ExactOracle>(path_graph(n, 1));
  const auto o2 = std::make_shared<ExactOracle>(path_graph(n, 2));
  QueryService service(
      std::shared_ptr<const DistanceOracle>(o1),
      {.shards = 8, .threads = 2, .cache_capacity = 512});

  std::atomic<bool> stop{false};
  std::thread swapper([&] {
    for (int i = 1; i <= 400 && !stop.load(); ++i) {
      service.swap(std::shared_ptr<const DistanceOracle>(
          i % 2 == 1 ? o2 : o1));
    }
  });

  WorkloadConfig wl;
  wl.seed = 3;
  WorkloadGenerator gen(n, wl);
  std::size_t torn = 0;
  for (int b = 0; b < 300; ++b) {
    const auto pairs = gen.batch(64);
    std::vector<Dist> answers(pairs.size(), static_cast<Dist>(-2));
    const std::uint64_t generation = service.query_batch(pairs, answers);
    const DistanceOracle& oracle =
        generation % 2 == 0 ? static_cast<const DistanceOracle&>(*o1)
                            : static_cast<const DistanceOracle&>(*o2);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (answers[i] != oracle.query(pairs[i].first, pairs[i].second)) {
        ++torn;
      }
    }
  }
  stop.store(true);
  swapper.join();
  EXPECT_EQ(torn, 0u);
}

TEST(QueryService, AutoShardCountScalesWithThreads) {
  const SketchStore store = make_store(Scheme::kThorupZwick, 30);
  QueryService small(store, {.shards = 0, .threads = 1});
  EXPECT_GE(small.num_shards(), 8u);
  QueryService wide(store, {.shards = 0, .threads = 6});
  // Auto-sharding keeps a few shards per lane so pulls stay balanced.
  EXPECT_GE(wide.num_shards(), 2 * wide.num_threads());
}

TEST(QueryService, ZipfWorkloadSkewsTowardHotPairs) {
  WorkloadConfig cfg;
  cfg.kind = WorkloadConfig::Kind::kZipf;
  cfg.hot_pairs = 64;
  cfg.zipf_s = 1.2;
  WorkloadGenerator gen(1000, cfg);
  std::unordered_map<std::uint64_t, std::size_t> counts;
  const std::size_t draws = 20000;
  for (std::size_t i = 0; i < draws; ++i) {
    const auto [u, v] = gen.next();
    ASSERT_LT(u, 1000u);
    ASSERT_LT(v, 1000u);
    ++counts[(static_cast<std::uint64_t>(u) << 32) | v];
  }
  EXPECT_LE(counts.size(), 64u);  // confined to the hot universe
  std::size_t max_count = 0;
  for (const auto& [key, c] : counts) max_count = std::max(max_count, c);
  // Rank-1 mass for s=1.2 over 64 ranks is ~23%; uniform would be ~1.6%.
  EXPECT_GT(max_count, draws / 10);
}

TEST(QueryService, TracesOneQueryIn64AndEverySlice) {
  // One shard, no cache: every query is a miss, and the shard's query
  // count runs 1..1000 across ten batches, so the 1-in-64 rule opens an
  // oracle_query span at counts 64, 128, ..., 960.
  const SketchStore store = make_store(Scheme::kThorupZwick);
  QueryService service(store, {.shards = 1, .threads = 1});
  std::vector<QueryService::Pair> pairs;
  for (NodeId i = 0; i < 1000; ++i) pairs.emplace_back(i % 90, (i * 7) % 90);
  const std::shared_ptr<obs::TraceSession> session =
      obs::TraceSession::start();
  std::vector<Dist> answers(100, 0);
  for (std::size_t b = 0; b < 10; ++b) {
    service.query_batch(std::span(pairs).subspan(b * 100, 100), answers);
  }
  obs::TraceSession::stop();
  EXPECT_EQ(service.stats().cache_hits, 0u);

  std::ostringstream json;
  session->write_chrome_trace(json);
  std::size_t query_spans = 0, slice_spans = 0, batch_spans = 0;
  for (const obs::ParsedEvent& e : obs::parse_chrome_trace(json.str())) {
    query_spans += e.name == "oracle_query";
    slice_spans += e.name == "shard_slice";
    batch_spans += e.name == "serve_batch";
  }
  EXPECT_EQ(query_spans, 1000u / 64u);
  EXPECT_EQ(slice_spans, 10u);
  EXPECT_EQ(batch_spans, 10u);
  EXPECT_EQ(session->dropped(), 0u);
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCache<int, int> cache(2);
  cache.put(1, 10);
  cache.put(2, 20);
  ASSERT_NE(cache.get(1), nullptr);  // touch 1; 2 becomes LRU
  cache.put(3, 30);                  // evicts 2
  EXPECT_EQ(cache.get(2), nullptr);
  ASSERT_NE(cache.get(1), nullptr);
  EXPECT_EQ(*cache.get(1), 10);
  ASSERT_NE(cache.get(3), nullptr);
  EXPECT_EQ(*cache.get(3), 30);
  EXPECT_EQ(cache.size(), 2u);
}

// ---- degraded-mode serving -------------------------------------------------

/// Wraps an oracle and throws on query while `sick` — the failure injector
/// for the deadline/retry/circuit-breaker path. `fail_first` makes each
/// distinct (u, v) call fail that many times before succeeding (retry
/// coverage). Thread-safe: shards query concurrently.
class FlakyOracle final : public DistanceOracle {
 public:
  explicit FlakyOracle(const DistanceOracle& inner, int fail_first = 0)
      : inner_(inner), fail_first_(fail_first) {}

  Dist query(NodeId u, NodeId v) const override {
    if (sick_.load(std::memory_order_relaxed)) {
      throw std::runtime_error("flaky oracle is sick");
    }
    if (fail_first_ > 0) {
      const std::uint64_t key =
          (static_cast<std::uint64_t>(u) << 32) | static_cast<std::uint64_t>(v);
      std::lock_guard<std::mutex> lock(mu_);
      if (attempts_[key]++ < fail_first_) {
        throw std::runtime_error("flaky oracle transient failure");
      }
    }
    return inner_.query(u, v);
  }
  NodeId num_nodes() const override { return inner_.num_nodes(); }
  std::size_t size_words(NodeId u) const override {
    return inner_.size_words(u);
  }
  std::string scheme() const override { return inner_.scheme(); }
  std::string guarantee() const override { return inner_.guarantee(); }
  Capabilities capabilities() const override {
    return inner_.capabilities();
  }
  void save(std::ostream& out) const override { inner_.save(out); }

  void set_sick(bool sick) { sick_.store(sick, std::memory_order_relaxed); }

 private:
  const DistanceOracle& inner_;
  int fail_first_;
  std::atomic<bool> sick_{false};
  mutable std::mutex mu_;
  mutable std::unordered_map<std::uint64_t, int> attempts_;
};

QueryServiceConfig degraded_config() {
  QueryServiceConfig cfg;
  cfg.shards = 4;
  cfg.threads = 2;
  cfg.max_retries = 1;
  cfg.retry_backoff_us = 0;  // keep the test fast
  cfg.breaker_threshold = 2;
  cfg.breaker_cooldown_batches = 3;
  return cfg;
}

TEST(QueryServiceDegraded, TransientFailuresRetryToTheRightAnswer) {
  const SketchStore store = make_store(Scheme::kThorupZwick);
  FlakyOracle flaky(store, /*fail_first=*/1);
  QueryServiceConfig cfg = degraded_config();
  cfg.cache_capacity = 0;
  QueryService service(flaky, cfg);
  const auto pairs = all_pairs_sample(store.num_nodes());
  std::vector<Dist> answers(pairs.size(), 0);
  service.query_batch(pairs, answers);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(answers[i], store.query(pairs[i].first, pairs[i].second));
  }
  const QueryServiceStats s = service.stats();
  EXPECT_GT(s.query_retries, 0u);
  EXPECT_EQ(s.query_failures, 0u);
  EXPECT_EQ(s.breaker_opens, 0u);
}

TEST(QueryServiceDegraded, BreakerFailsOverToPreviousGenerationExactly) {
  // gen 1 = healthy store, gen 2 = sick oracle. Once shards trip their
  // breakers, every answer must equal the previous generation's oracle
  // bit-for-bit: zero incorrect answers while circuit-broken (the PR's
  // acceptance bar), visible in the stale-answer counter.
  const auto store =
      std::make_shared<SketchStore>(make_store(Scheme::kThorupZwick));
  auto sick = std::make_shared<FlakyOracle>(*store);
  sick->set_sick(true);

  QueryService service(borrow_oracle(*store), degraded_config());
  service.swap(store);  // gen 1: the good store becomes previous() later
  service.swap(sick);   // gen 2: current oracle is sick
  const auto pairs = all_pairs_sample(store->num_nodes());
  std::vector<Dist> answers(pairs.size(), 0);
  for (int batch = 0; batch < 6; ++batch) {
    service.query_batch(pairs, answers);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      EXPECT_EQ(answers[i], store->query(pairs[i].first, pairs[i].second))
          << "batch " << batch << " pair " << i;
    }
  }
  const QueryServiceStats s = service.stats();
  EXPECT_GT(s.query_failures, 0u);
  EXPECT_GT(s.breaker_opens, 0u);
  EXPECT_GT(s.breakers_open, 0u);
  EXPECT_GT(s.stale_answers, 0u);
  EXPECT_EQ(s.shed_answers, 0u);
}

TEST(QueryServiceDegraded, BreakerClosesAgainAfterRecovery) {
  const auto store =
      std::make_shared<SketchStore>(make_store(Scheme::kThorupZwick));
  auto flaky = std::make_shared<FlakyOracle>(*store);
  QueryService service(borrow_oracle(*store), degraded_config());
  service.swap(store);
  service.swap(flaky);
  flaky->set_sick(true);
  const auto pairs = all_pairs_sample(store->num_nodes());
  std::vector<Dist> answers(pairs.size(), 0);
  for (int batch = 0; batch < 4; ++batch) service.query_batch(pairs, answers);
  ASSERT_GT(service.stats().breakers_open, 0u);
  // Oracle heals; after the cooldown the half-open probes succeed and all
  // breakers close again.
  flaky->set_sick(false);
  for (int batch = 0; batch < 8; ++batch) service.query_batch(pairs, answers);
  const QueryServiceStats s = service.stats();
  EXPECT_EQ(s.breakers_open, 0u);
  EXPECT_GT(s.breaker_probes, 0u);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(answers[i], store->query(pairs[i].first, pairs[i].second));
  }
}

TEST(QueryServiceDegraded, FallbackOracleServesWhenNoPreviousGeneration) {
  // A service born sick with no previous generation: the configured exact
  // fallback answers, and every answer matches it exactly.
  const Graph g = erdos_renyi(60, 0.08, {1, 9}, 29);
  BuildConfig bcfg;
  bcfg.scheme = Scheme::kThorupZwick;
  bcfg.k = 2;
  const SketchStore store(g, bcfg);
  FlakyOracle sick(store);
  sick.set_sick(true);
  const auto exact = std::make_shared<ExactOracle>(g);
  QueryServiceConfig cfg = degraded_config();
  cfg.fallback = exact;
  QueryService service(sick, cfg);
  const auto pairs = all_pairs_sample(g.num_nodes());
  std::vector<Dist> answers(pairs.size(), 0);
  for (int batch = 0; batch < 4; ++batch) {
    service.query_batch(pairs, answers);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      EXPECT_EQ(answers[i], exact->query(pairs[i].first, pairs[i].second));
    }
  }
  const QueryServiceStats s = service.stats();
  EXPECT_GT(s.fallback_answers, 0u);
  EXPECT_EQ(s.stale_answers, 0u);
  EXPECT_EQ(s.shed_answers, 0u);
}

TEST(QueryServiceDegraded, NoFailoverShedsWithInfDist) {
  // Nothing to fail over to: degraded answers must be the safe kInfDist,
  // never a fabricated finite distance.
  const SketchStore store = make_store(Scheme::kThorupZwick, 40);
  FlakyOracle sick(store);
  sick.set_sick(true);
  QueryService service(sick, degraded_config());
  const auto pairs = all_pairs_sample(store.num_nodes());
  std::vector<Dist> answers(pairs.size(), 0);
  for (int batch = 0; batch < 3; ++batch) service.query_batch(pairs, answers);
  for (const Dist d : answers) EXPECT_EQ(d, kInfDist);
  EXPECT_GT(service.stats().shed_answers, 0u);
}

TEST(QueryServiceDegraded, DeadlineOverrunsAreCountedAndServedDegraded) {
  // An oracle that dawdles: with a microscopic slice deadline the tail of
  // each slice is served by the fallback; answers stay correct because
  // the fallback is the same store.
  const SketchStore store = make_store(Scheme::kThorupZwick, 60);
  class SlowOracle final : public DistanceOracle {
   public:
    explicit SlowOracle(const SketchStore& s) : s_(s) {}
    Dist query(NodeId u, NodeId v) const override {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      return s_.query(u, v);
    }
    NodeId num_nodes() const override { return s_.num_nodes(); }
    std::size_t size_words(NodeId u) const override {
      return s_.size_words(u);
    }
    std::string scheme() const override { return s_.scheme(); }
    std::string guarantee() const override { return s_.guarantee(); }
    Capabilities capabilities() const override { return s_.capabilities(); }
    void save(std::ostream& out) const override { s_.save(out); }

   private:
    const SketchStore& s_;
  } slow(store);
  QueryServiceConfig cfg = degraded_config();
  cfg.shard_deadline_us = 50;
  cfg.fallback = borrow_oracle(store);
  QueryService service(slow, cfg);
  const auto pairs = all_pairs_sample(store.num_nodes());
  std::vector<Dist> answers(pairs.size(), 0);
  service.query_batch(pairs, answers);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(answers[i], store.query(pairs[i].first, pairs[i].second));
  }
  const QueryServiceStats s = service.stats();
  EXPECT_GT(s.deadline_violations, 0u);
  EXPECT_GT(s.fallback_answers, 0u);
}

TEST(QueryServiceDegraded, MetricsExportEveryDegradationDecision) {
  const SketchStore store = make_store(Scheme::kThorupZwick, 40);
  FlakyOracle sick(store);
  sick.set_sick(true);
  QueryService service(sick, degraded_config());
  const auto pairs = all_pairs_sample(store.num_nodes());
  std::vector<Dist> answers(pairs.size(), 0);
  for (int batch = 0; batch < 3; ++batch) service.query_batch(pairs, answers);
  obs::MetricsRegistry registry;
  service.export_metrics(registry);
  std::ostringstream out;
  registry.write_prometheus(out);
  const std::string text = out.str();
  for (const char* name :
       {"serve_query_failures_total", "serve_query_retries_total",
        "serve_deadline_violations_total", "serve_breaker_opens_total",
        "serve_breaker_probes_total", "serve_stale_answers_total",
        "serve_fallback_answers_total", "serve_shed_answers_total",
        "serve_breakers_open"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
}

TEST(LruCache, PutOverwritesExistingKey) {
  LruCache<int, int> cache(2);
  cache.put(1, 10);
  cache.put(1, 11);
  ASSERT_NE(cache.get(1), nullptr);
  EXPECT_EQ(*cache.get(1), 11);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(LruCache, ZeroCapacityDisables) {
  LruCache<int, int> cache(0);
  cache.put(1, 10);
  EXPECT_EQ(cache.get(1), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LruCache, ClearEmptiesAndKeepsWorking) {
  LruCache<int, int> cache(3);
  for (int i = 0; i < 5; ++i) cache.put(i, i);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.get(4), nullptr);
  cache.put(7, 70);
  ASSERT_NE(cache.get(7), nullptr);
  EXPECT_EQ(*cache.get(7), 70);
}

}  // namespace
}  // namespace dsketch
