#include "serve/query_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "baselines/exact_oracle.hpp"
#include "baselines/landmark.hpp"
#include "graph/generators.hpp"
#include "obs/trace.hpp"
#include "serve/answer_cache.hpp"
#include "serve/sketch_store.hpp"
#include "serve/workload.hpp"
#include "util/rng.hpp"

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

/// Wraps an oracle, counts the queries it answers, and throws on query
/// while `sick` — the failure injector for the failover path. Thread-safe:
/// shards query concurrently.
class FlakyOracle final : public DistanceOracle {
 public:
  explicit FlakyOracle(const DistanceOracle& inner) : inner_(inner) {}

  Dist query(NodeId u, NodeId v) const override {
    if (sick_.load(std::memory_order_relaxed)) {
      throw std::runtime_error("flaky oracle is sick");
    }
    merges_.fetch_add(1, std::memory_order_relaxed);
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
  /// Queries answered (not thrown).
  std::uint64_t merges() const {
    return merges_.load(std::memory_order_relaxed);
  }

 private:
  const DistanceOracle& inner_;
  std::atomic<bool> sick_{false};
  mutable std::atomic<std::uint64_t> merges_{0};
};

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

TEST(QueryService, ShardAssignmentIsPinned) {
  // A pair's shard is splitmix64(canonical key) mod shards: pinned
  // counts for a seeded batch catch any change to the routing hash.
  const Graph g = erdos_renyi(90, 0.08, {1, 9}, 23);
  const ExactOracle oracle(g);
  QueryServiceConfig cfg;
  cfg.shards = 16;
  cfg.threads = 1;
  QueryService service(oracle, cfg);
  Rng rng(29);
  std::vector<QueryService::Pair> pairs;
  for (int i = 0; i < 1024; ++i) {
    const auto u = static_cast<NodeId>(rng.below(g.num_nodes()));
    pairs.emplace_back(u, static_cast<NodeId>(rng.below(g.num_nodes())));
  }
  std::vector<Dist> out(pairs.size());
  service.query_batch(pairs, out);
  const std::vector<std::uint64_t> expect = {57, 53, 62, 61, 81, 85, 58, 63,
                                             62, 66, 61, 63, 66, 61, 56, 69};
  EXPECT_EQ(service.stats().shard_queries, expect);
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

/// Counts each kind of span in `session`'s trace, and sums the arguments
/// of the oracle_batch spans.
struct SpanCounts {
  std::size_t batch = 0, slice = 0, oracle_batch = 0, oracle_query = 0;
  std::uint64_t oracle_batch_pairs = 0;
};
SpanCounts count_spans(const obs::TraceSession& session) {
  SpanCounts c;
  for (const obs::TraceSession::Event& e : session.events()) {
    const std::string_view name = e.name;
    c.batch += name == "serve_batch";
    c.slice += name == "shard_slice";
    c.oracle_query += name == "oracle_query";
    if (name == "oracle_batch") {
      ++c.oracle_batch;
      c.oracle_batch_pairs += e.value;
    }
  }
  return c;
}

TEST(QueryService, TracesEverySliceAndItsBatchCall) {
  // One shard, no cache: every query is a miss, so each of the ten
  // batches runs one slice whose 100 misses go to one oracle_batch call.
  const SketchStore store = make_store(Scheme::kThorupZwick);
  QueryService service(store, {.shards = 1, .threads = 1});
  std::vector<QueryService::Pair> pairs;
  for (NodeId i = 0; i < 1000; ++i) pairs.emplace_back(i % 90, (i * 7) % 90);
  std::shared_ptr<obs::TraceSession> session = obs::TraceSession::start();
  std::vector<Dist> answers(100, 0);
  for (std::size_t b = 0; b < 10; ++b) {
    service.query_batch(std::span(pairs).subspan(b * 100, 100), answers);
  }
  obs::TraceSession::stop();
  EXPECT_EQ(service.stats().cache_hits, 0u);
  SpanCounts c = count_spans(*session);
  EXPECT_EQ(c.batch, 10u);
  EXPECT_EQ(c.slice, 10u);
  EXPECT_EQ(c.oracle_batch, 10u);
  EXPECT_EQ(c.oracle_batch_pairs, 1000u);  // the span's argument: misses
  EXPECT_EQ(c.oracle_query, 0u);
  EXPECT_EQ(session->dropped(), 0u);

  // With a warm cache a slice has no misses and makes no batch call.
  QueryService cached(store,
                      {.shards = 1, .threads = 1, .cache_capacity = 4096});
  const auto first = std::span(pairs).first(100);
  cached.query_batch(first, answers);
  session = obs::TraceSession::start();
  cached.query_batch(first, answers);
  obs::TraceSession::stop();
  c = count_spans(*session);
  EXPECT_EQ(c.slice, 1u);
  EXPECT_EQ(c.oracle_batch, 0u);
}

TEST(QueryService, RepeatedKeyInASliceIsMergedOnce) {
  // One shard, one batch, a cold cache: pair (3, 40) appears 1 + 5 times
  // among 20 distinct pairs. Its repeats are answered from the first
  // occurrence's merge and counted as hits, as if it had been cached at
  // once.
  const SketchStore store = make_store(Scheme::kThorupZwick);
  FlakyOracle counting(store);
  QueryService service(counting,
                       {.shards = 1, .threads = 1, .cache_capacity = 64});
  std::vector<QueryService::Pair> pairs;
  for (NodeId u = 0; u < 20; ++u) pairs.emplace_back(u, 60 - u);
  const QueryService::Pair repeated{3, 40};
  for (const std::size_t at : {0, 4, 9, 10, 17, 23}) {
    pairs.insert(pairs.begin() + static_cast<std::ptrdiff_t>(at), repeated);
  }
  std::vector<Dist> answers(pairs.size(), 0);
  service.query_batch(pairs, answers);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(answers[i], store.query(pairs[i].first, pairs[i].second));
  }
  EXPECT_EQ(counting.merges(), 21u);  // 20 distinct pairs + (3, 40) once
  EXPECT_EQ(service.stats().cache_hits, 5u);
  EXPECT_EQ(service.stats().queries, pairs.size());
}

TEST(AnswerCache, EvictsLeastRecentlyUsedWithinASet) {
  AnswerCache cache(4);  // one set: every key shares it
  for (std::uint64_t k = 1; k <= 4; ++k) cache.put(k, 10 * k);
  ASSERT_NE(cache.get(1), nullptr);  // touch 1; 2 becomes least recent
  cache.put(5, 50);                  // evicts 2
  EXPECT_EQ(cache.get(2), nullptr);
  for (const std::uint64_t k : {1, 3, 4, 5}) {
    const Dist* hit = cache.get(k);
    ASSERT_NE(hit, nullptr) << k;
    EXPECT_EQ(*hit, 10 * k);
  }
  EXPECT_EQ(cache.size(), 4u);
  // Recency now runs 5, 4, 3, 1 (most recent first): 1 goes next.
  cache.put(6, 60);
  EXPECT_EQ(cache.get(1), nullptr);
  EXPECT_NE(cache.get(3), nullptr);
}

TEST(AnswerCache, PutOverwritesExistingKey) {
  AnswerCache cache(4);
  cache.put(1, 10);
  cache.put(1, 11);
  ASSERT_NE(cache.get(1), nullptr);
  EXPECT_EQ(*cache.get(1), 11u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(AnswerCache, ZeroCapacityDisables) {
  AnswerCache cache(0);
  cache.put(1, 10);
  EXPECT_EQ(cache.get(1), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.capacity(), 0u);
}

TEST(AnswerCache, ClearEmptiesAndKeepsWorking) {
  AnswerCache cache(64);
  for (std::uint64_t k = 0; k < 40; ++k) cache.put(k, k);
  EXPECT_GT(cache.size(), 0u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  for (std::uint64_t k = 0; k < 40; ++k) EXPECT_EQ(cache.get(k), nullptr);
  cache.put(7, 70);
  ASSERT_NE(cache.get(7), nullptr);
  EXPECT_EQ(*cache.get(7), 70u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(AnswerCache, RoundsCapacityUpToWholeSets) {
  EXPECT_EQ(AnswerCache(1).capacity(), 4u);
  EXPECT_EQ(AnswerCache(4).capacity(), 4u);
  EXPECT_EQ(AnswerCache(5).capacity(), 8u);
  EXPECT_EQ(AnswerCache(4095).capacity(), 4096u);
  // A one-entry request still gets a whole set: four keys fit.
  AnswerCache one(1);
  for (std::uint64_t k = 0; k < 4; ++k) one.put(ordered_pair_key(k, 9), k);
  for (std::uint64_t k = 0; k < 4; ++k) {
    EXPECT_NE(one.get(ordered_pair_key(k, 9)), nullptr) << k;
  }
  EXPECT_EQ(one.size(), 4u);
}

// ---- failover ----------------------------------------------------------------

QueryServiceConfig degraded_config() {
  QueryServiceConfig cfg;
  cfg.shards = 4;
  cfg.threads = 2;
  cfg.cache_capacity = 4096;
  return cfg;
}

TEST(QueryServiceDegraded, BreakerFailsOverToPreviousGenerationExactly) {
  // gen 1 = healthy store, gen 2 = sick oracle. Every slice whose batch
  // call throws is answered by the previous generation's oracle
  // bit-for-bit — zero incorrect answers — and none of those answers is
  // cached: the pairs repeat across batches, so a cached one would hit.
  const auto store =
      std::make_shared<SketchStore>(make_store(Scheme::kThorupZwick));
  auto sick = std::make_shared<FlakyOracle>(*store);
  sick->set_sick(true);

  QueryService service(borrow_oracle(*store), degraded_config());
  service.swap(store);  // gen 1: the good store becomes previous() later
  service.swap(sick);   // gen 2: current oracle is sick
  const auto pairs = all_pairs_sample(store->num_nodes());
  std::vector<Dist> answers(pairs.size(), 0);
  constexpr int kBatches = 3;
  for (int batch = 0; batch < kBatches; ++batch) {
    service.query_batch(pairs, answers);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      EXPECT_EQ(answers[i], store->query(pairs[i].first, pairs[i].second))
          << "batch " << batch << " pair " << i;
    }
  }
  const QueryServiceStats s = service.stats();
  EXPECT_EQ(s.cache_hits, 0u);
  EXPECT_EQ(s.query_failures, kBatches * pairs.size());
  EXPECT_EQ(s.stale_answers, s.query_failures);
  EXPECT_EQ(s.fallback_answers, 0u);
  EXPECT_EQ(s.shed_answers, 0u);
}

TEST(QueryServiceDegraded, BreakerClosesAgainAfterRecovery) {
  // While the primary throws, the previous generation answers. Once it
  // stops, the very next batch is served by the primary: the failover's
  // answers were never cached, so every pair reaches it — and its own
  // answers are cached for the batch after.
  const auto store =
      std::make_shared<SketchStore>(make_store(Scheme::kThorupZwick));
  auto flaky = std::make_shared<FlakyOracle>(*store);
  QueryService service(borrow_oracle(*store), degraded_config());
  service.swap(store);
  service.swap(flaky);
  flaky->set_sick(true);
  const auto pairs = all_pairs_sample(store->num_nodes());
  std::vector<Dist> answers(pairs.size(), 0);
  service.query_batch(pairs, answers);
  ASSERT_EQ(service.stats().stale_answers, pairs.size());

  flaky->set_sick(false);
  service.query_batch(pairs, answers);
  EXPECT_EQ(flaky->merges(), pairs.size());
  EXPECT_EQ(service.stats().stale_answers, pairs.size());  // no new ones
  EXPECT_EQ(service.stats().cache_hits, 0u);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(answers[i], store->query(pairs[i].first, pairs[i].second));
  }
  service.query_batch(pairs, answers);
  EXPECT_EQ(flaky->merges(), pairs.size());
  EXPECT_EQ(service.stats().cache_hits, pairs.size());
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
       {"serve_query_failures_total", "serve_stale_answers_total",
        "serve_fallback_answers_total", "serve_shed_answers_total"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace dsketch
