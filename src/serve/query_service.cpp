#include "serve/query_service.hpp"

#include <algorithm>
#include <optional>

#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"

namespace dsketch {

QueryService::QueryService(const DistanceOracle& oracle,
                           QueryServiceConfig cfg)
    : QueryService(borrow_oracle(oracle), cfg) {}

QueryService::QueryService(std::shared_ptr<const DistanceOracle> oracle,
                           QueryServiceConfig cfg)
    : slot_(std::move(oracle)),
      cfg_(cfg),
      pool_(cfg.threads) {
  if (cfg.shards == 0) {
    // A few shards per lane, so dynamic pulls keep slices balanced.
    cfg.shards = std::max<std::size_t>(8, 4 * (pool_.size() + 1));
  }
  shards_.reserve(cfg.shards);
  for (std::size_t s = 0; s < cfg.shards; ++s) {
    shards_.emplace_back();
    shards_.back().cache = AnswerCache(cfg.cache_capacity);
  }
}

void QueryService::answer_degraded(Shard& shard,
                                   const PinnedSnapshots& pinned,
                                   std::span<const Pair> pairs,
                                   std::span<Dist> out) {
  // Failover chain: the previous published generation is the closest
  // approximation of current truth; an exact fallback recomputes from the
  // graph; with neither, kInfDist is a safe one-sided "don't know". Every
  // branch may itself throw, so each is guarded — a throwing failover
  // degrades further down the chain instead of killing the batch.
  shard.failures += pairs.size();
  const auto answered_by = [&](const DistanceOracle* oracle,
                               std::uint64_t& counter) {
    if (oracle == nullptr) return false;
    try {
      oracle->query_batch(pairs, out);
    } catch (...) {
      return false;
    }
    counter += pairs.size();
    return true;
  };
  if (answered_by(pinned.previous.oracle.get(), shard.stale_answers) ||
      answered_by(cfg_.fallback.get(), shard.fallback_answers)) {
    return;
  }
  std::fill(out.begin(), out.end(), kInfDist);
  shard.shed_answers += pairs.size();
}

void QueryService::run_shard(Shard& shard, const PinnedSnapshots& pinned,
                             std::span<const Pair> pairs,
                             std::span<Dist> out) {
  if (shard.slice.empty()) return;
  const OracleSnapshot& snap = pinned.current;
  if (shard.cache_generation != snap.generation) {
    // The cache holds answers of an older oracle; generation tagging
    // makes the drop a per-shard O(entries) clear on first use instead
    // of a swap-time stall across all shards.
    if (shard.cache.size() > 0) {
      shard.cache.clear();
      ++shard.invalidations;
    }
    shard.cache_generation = snap.generation;
  }
  const obs::Span slice_span("shard_slice",
                             static_cast<std::uint64_t>(shard.slice.size()));
  std::optional<Timer> timer;
  if (cfg_.collect_metrics) timer.emplace();

  // Probe the cache for the whole slice and gather the misses.
  shard.queries += shard.slice.size();
  shard.misses.clear();
  for (const std::uint32_t i : shard.slice) {
    const auto [u, v] = pairs[i];
    const std::uint64_t key = snap.symmetric ? canonical_pair_key(u, v)
                                             : ordered_pair_key(u, v);
    if (const Dist* hit = shard.cache.get(key)) {
      ++shard.cache_hits;
      out[i] = *hit;
    } else {
      shard.misses.emplace_back(key, i);
    }
  }

  // With the cache on, a key repeated within the slice is merged once and
  // its repeats are hits, as if the first answer had been cached at once:
  // sorting by (key, index) puts each key's first occurrence first.
  const bool merge_repeats = shard.cache.capacity() > 0;
  if (merge_repeats) std::sort(shard.misses.begin(), shard.misses.end());
  const auto repeat = [&](std::size_t j) {
    return merge_repeats && j > 0 &&
           shard.misses[j].first == shard.misses[j - 1].first;
  };
  shard.miss_pairs.clear();
  for (std::size_t j = 0; j < shard.misses.size(); ++j) {
    if (repeat(j)) {
      ++shard.cache_hits;
    } else {
      shard.miss_pairs.push_back(pairs[shard.misses[j].second]);
    }
  }

  // One batch call answers the distinct misses.
  shard.miss_answers.resize(shard.miss_pairs.size());
  bool answered = true;
  if (!shard.miss_pairs.empty()) {
    const obs::Span batch_span(
        "oracle_batch", static_cast<std::uint64_t>(shard.miss_pairs.size()));
    try {
      snap.oracle->query_batch(shard.miss_pairs, shard.miss_answers);
    } catch (...) {
      answered = false;
    }
  }
  if (!answered) {
    answer_degraded(shard, pinned, shard.miss_pairs, shard.miss_answers);
  }

  // Scatter the answers and fill the cache with the primary's.
  std::size_t d = 0;  // the distinct miss that answers misses[j]
  for (std::size_t j = 0; j < shard.misses.size(); ++j) {
    const auto [key, i] = shard.misses[j];
    if (!repeat(j)) {
      if (j > 0) ++d;
      if (answered) shard.cache.put(key, shard.miss_answers[d]);
    }
    out[i] = shard.miss_answers[d];
  }
  if (timer) shard.slice_latency_us.record(timer->seconds() * 1e6);
}

std::uint64_t QueryService::query_batch(std::span<const Pair> pairs,
                                        std::span<Dist> out) {
  DS_CHECK(pairs.size() == out.size());
  const obs::Span batch_span("serve_batch",
                             static_cast<std::uint64_t>(pairs.size()));
  Timer timer;
  // Pin one snapshot (and its failover predecessor) for the whole batch:
  // every pair is answered by the same oracle generation even if swap()
  // lands mid-batch. One lock takes both, so they are a consistent pair.
  const PinnedSnapshots pinned = slot_.pin();
  // Scatter pair indices to their owning shards (single pass, reused
  // buffers), then execute each shard's slice on the pool. out[] is
  // indexed by the original position, so answers are order-stable and
  // independent of shard or thread count.
  for (Shard& shard : shards_) shard.slice.clear();
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const std::size_t s =
        shard_of(canonical_pair_key(pairs[i].first, pairs[i].second));
    shards_[s].slice.push_back(static_cast<std::uint32_t>(i));
  }
  pool_.parallel_for(shards_.size(), [&](std::size_t s) {
    run_shard(shards_[s], pinned, pairs, out);
  });
  ++batches_;
  wall_seconds_ += timer.seconds();
  return pinned.current.generation;
}

Dist QueryService::query(NodeId u, NodeId v) {
  const Pair pair{u, v};
  Dist answer = kInfDist;
  query_batch(std::span<const Pair>(&pair, 1), std::span<Dist>(&answer, 1));
  return answer;
}

std::uint64_t QueryService::swap(
    std::shared_ptr<const DistanceOracle> next) {
  const obs::Span swap_span("oracle_swap");
  const std::uint64_t generation = slot_.store(std::move(next));
  swaps_.fetch_add(1, std::memory_order_relaxed);
  return generation;
}

QueryServiceStats QueryService::stats() const {
  QueryServiceStats s;
  obs::LatencyHistogram latencies;
  for (const Shard& shard : shards_) {
    s.queries += shard.queries;
    s.cache_hits += shard.cache_hits;
    s.cache_invalidations += shard.invalidations;
    s.shard_queries.push_back(shard.queries);
    latencies.merge(shard.slice_latency_us);
    s.query_failures += shard.failures;
    s.stale_answers += shard.stale_answers;
    s.fallback_answers += shard.fallback_answers;
    s.shed_answers += shard.shed_answers;
  }
  s.batches = batches_;
  s.swaps = swaps_.load(std::memory_order_relaxed);
  s.generation = slot_.generation();
  s.wall_seconds = wall_seconds_;
  s.qps = wall_seconds_ > 0 ? static_cast<double>(s.queries) / wall_seconds_
                            : 0;
  s.hit_rate = s.queries > 0
                   ? static_cast<double>(s.cache_hits) /
                         static_cast<double>(s.queries)
                   : 0;
  s.slice_latency_us = latencies.summary();
  return s;
}

void QueryService::reset_stats() {
  for (Shard& shard : shards_) {
    shard.queries = 0;
    shard.cache_hits = 0;
    shard.invalidations = 0;
    shard.slice_latency_us.reset();
    shard.failures = 0;
    shard.stale_answers = 0;
    shard.fallback_answers = 0;
    shard.shed_answers = 0;
  }
  batches_ = 0;
  swaps_.store(0, std::memory_order_relaxed);
  wall_seconds_ = 0;
}

void QueryService::export_metrics(obs::MetricsRegistry& registry) const {
  const QueryServiceStats s = stats();
  registry.counter("serve_queries_total").set(s.queries);
  registry.counter("serve_cache_hits_total").set(s.cache_hits);
  registry.counter("serve_batches_total").set(s.batches);
  registry.counter("serve_swaps_total").set(s.swaps);
  registry.counter("serve_cache_invalidations_total")
      .set(s.cache_invalidations);
  registry.gauge("serve_generation").set(static_cast<double>(s.generation));
  registry.gauge("serve_wall_seconds").set(s.wall_seconds);
  registry.gauge("serve_qps").set(s.qps);
  registry.gauge("serve_hit_rate").set(s.hit_rate);
  registry.counter("serve_query_failures_total").set(s.query_failures);
  registry.counter("serve_stale_answers_total").set(s.stale_answers);
  registry.counter("serve_fallback_answers_total").set(s.fallback_answers);
  registry.counter("serve_shed_answers_total").set(s.shed_answers);
  obs::LatencyHistogram& h = registry.histogram("serve_shard_slice_us");
  h.reset();
  for (const Shard& shard : shards_) h.merge(shard.slice_latency_us);
}

}  // namespace dsketch
