#include "serve/query_service.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

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
    shards_.back().cache = LruCache<std::uint64_t, Dist>(cfg.cache_capacity);
  }
}

Dist QueryService::query_degraded(Shard& shard, const BatchCtx& ctx,
                                  NodeId u, NodeId v) {
  // Failover chain: the previous published generation is the closest
  // approximation of current truth; an exact fallback recomputes from the
  // graph; with neither, kInfDist is a safe one-sided "don't know". Every
  // branch may itself misbehave, so each is guarded — a throwing failover
  // degrades further down the chain instead of killing the batch.
  if (ctx.previous.oracle != nullptr) {
    try {
      const Dist d = ctx.previous.oracle->query(u, v);
      ++shard.stale_answers;
      return d;
    } catch (...) {
    }
  }
  if (cfg_.fallback != nullptr) {
    try {
      const Dist d = cfg_.fallback->query(u, v);
      ++shard.fallback_answers;
      return d;
    } catch (...) {
    }
  }
  ++shard.shed_answers;
  return kInfDist;
}

bool QueryService::query_primary(Shard& shard, const OracleSnapshot& snap,
                                 NodeId u, NodeId v, Dist& answer) {
  for (std::uint32_t attempt = 0;; ++attempt) {
    try {
      answer = snap.oracle->query(u, v);
      return true;
    } catch (...) {
      if (attempt >= cfg_.max_retries) {
        ++shard.failures;
        return false;
      }
      ++shard.retries;
      if (cfg_.retry_backoff_us > 0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(cfg_.retry_backoff_us << attempt));
      }
    }
  }
}

void QueryService::run_shard(Shard& shard, const BatchCtx& ctx,
                             std::span<const Pair> pairs,
                             std::span<Dist> out) {
  if (shard.slice.empty()) return;
  const OracleSnapshot& snap = ctx.snap;
  // Breaker gate: an open shard serves entirely from the failover chain
  // until its cooldown elapses, then half-opens for one probe slice.
  bool use_primary = true;
  if (shard.breaker == Breaker::kOpen) {
    if (ctx.batch >= shard.probe_batch) {
      shard.breaker = Breaker::kHalfOpen;
      ++shard.breaker_probes;
    } else {
      use_primary = false;
    }
  }
  if (!use_primary) {
    for (const std::uint32_t i : shard.slice) {
      ++shard.queries;
      out[i] = query_degraded(shard, ctx, pairs[i].first, pairs[i].second);
    }
    return;
  }
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
  const bool deadline_on = cfg_.shard_deadline_us > 0;
  bool slice_failed = false;
  bool over_deadline = false;
  Timer timer;
  for (const std::uint32_t i : shard.slice) {
    const auto [u, v] = pairs[i];
    ++shard.queries;
    if (over_deadline) {
      // Budget exhausted: the slice's tail is served degraded so the batch
      // still completes in bounded time.
      out[i] = query_degraded(shard, ctx, u, v);
      continue;
    }
    const std::uint64_t key = snap.symmetric ? canonical_pair_key(u, v)
                                             : ordered_pair_key(u, v);
    if (const Dist* hit = shard.cache.get(key)) {
      ++shard.cache_hits;
      out[i] = *hit;
      continue;
    }
    // Per-query spans are sampled, as in Dapper (Sigelman et al., 2010):
    // a miss opens one only when the shard's query count is a multiple of
    // 64. A span per miss costs about as much as the label merge it
    // times, so tracing every miss more than doubles the serve path;
    // 1 in 64 keeps query shapes in the trace for a few percent.
    // shard_slice and serve_batch spans stay exhaustive.
    const obs::Span query_span((shard.queries & 63) == 0 ? "oracle_query"
                                                         : nullptr);
    Dist d = kInfDist;
    if (query_primary(shard, snap, u, v, d)) {
      shard.cache.put(key, d);
      out[i] = d;
    } else {
      slice_failed = true;
      out[i] = query_degraded(shard, ctx, u, v);
    }
    if (deadline_on &&
        timer.seconds() * 1e6 > static_cast<double>(cfg_.shard_deadline_us)) {
      over_deadline = true;
      ++shard.deadline_violations;
    }
  }
  if (cfg_.collect_metrics) {
    shard.slice_latency_us.record(timer.seconds() * 1e6);
  }

  // Breaker bookkeeping: one strike per failing slice, reset on a clean one.
  if (slice_failed || over_deadline) {
    ++shard.strikes;
    const bool trip =
        shard.breaker == Breaker::kHalfOpen ||
        (cfg_.breaker_threshold > 0 && shard.strikes >= cfg_.breaker_threshold);
    if (trip) {
      if (shard.breaker != Breaker::kOpen) ++shard.breaker_opens;
      shard.breaker = Breaker::kOpen;
      shard.probe_batch = ctx.batch + 1 + cfg_.breaker_cooldown_batches;
      shard.strikes = 0;
    }
  } else {
    shard.strikes = 0;
    shard.breaker = Breaker::kClosed;
  }
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
  BatchCtx ctx;
  auto [current, previous] = slot_.pin();
  ctx.snap = std::move(current);
  ctx.previous = std::move(previous);
  ctx.batch = batches_;
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
    run_shard(shards_[s], ctx, pairs, out);
  });
  ++batches_;
  wall_seconds_ += timer.seconds();
  return ctx.snap.generation;
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
    s.query_retries += shard.retries;
    s.deadline_violations += shard.deadline_violations;
    s.breaker_opens += shard.breaker_opens;
    s.breaker_probes += shard.breaker_probes;
    s.stale_answers += shard.stale_answers;
    s.fallback_answers += shard.fallback_answers;
    s.shed_answers += shard.shed_answers;
    if (shard.breaker != Breaker::kClosed) ++s.breakers_open;
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
    shard.retries = 0;
    shard.deadline_violations = 0;
    shard.breaker_opens = 0;
    shard.breaker_probes = 0;
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
  registry.counter("serve_query_retries_total").set(s.query_retries);
  registry.counter("serve_deadline_violations_total")
      .set(s.deadline_violations);
  registry.counter("serve_breaker_opens_total").set(s.breaker_opens);
  registry.counter("serve_breaker_probes_total").set(s.breaker_probes);
  registry.counter("serve_stale_answers_total").set(s.stale_answers);
  registry.counter("serve_fallback_answers_total").set(s.fallback_answers);
  registry.counter("serve_shed_answers_total").set(s.shed_answers);
  registry.gauge("serve_breakers_open").set(static_cast<double>(s.breakers_open));
  obs::LatencyHistogram& h = registry.histogram("serve_shard_slice_us");
  h.reset();
  for (const Shard& shard : shards_) h.merge(shard.slice_latency_us);
}

}  // namespace dsketch
