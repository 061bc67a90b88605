/// \file
/// Sharded multi-threaded batch query engine over any DistanceOracle,
/// with zero-downtime oracle hot-swap.
///
/// The serving tier's unit of work is a batch of (u, v) pairs. Pairs are
/// hash-partitioned into shards by their canonical (min, max) key, so both
/// orientations of a pair land on the same shard; shards then execute in
/// parallel on a dedicated util/thread_pool. Every oracle's query path is
/// a concurrent-safe pure read (the DistanceOracle contract), so shards
/// share the backing structure with no synchronization — the only mutable
/// state (cache, stats) is shard-private.
///
/// Cache identity follows the oracle's Capabilities::symmetric bit: a
/// symmetric oracle (exact, landmark, vivaldi, slack) caches under the
/// canonical key, so query(u, v) warms query(v, u) — without this, the
/// two orientations of one hot pair occupy two cache slots and the
/// effective hit rate halves. Orientation-dependent oracles (the TZ
/// pivot walk and its CDG/graceful derivatives) keep the ordered key,
/// because query(u, v) and query(v, u) may settle on different (both
/// valid) estimates and the service must reproduce the oracle's answer
/// for the orientation actually asked.
///
/// A shard serves its slice of a batch in three steps. It probes its
/// answer cache (serve/answer_cache.hpp: 4-way sets of one cache line,
/// LRU within a set) for every pair of the slice and gathers the misses;
/// it answers the misses with one DistanceOracle::query_batch call, so a
/// SketchStore can prefetch the records of later pairs while it merges
/// earlier ones; then it fills the cache. A key repeated within one slice
/// is merged once, and its repeats count as cache hits, as if the first
/// answer had been cached at once.
///
/// Failover has one rule: a slice whose batch call throws is answered by
/// the previous generation's oracle, else by QueryServiceConfig::fallback,
/// else with kInfDist ("don't know", never a wrong finite distance). Those
/// answers are never cached, and the next batch tries the primary again,
/// so a primary that stops throwing serves at once.
///
/// The oracle lives behind a generation-tagged snapshot slot
/// (serve/snapshot.hpp). swap() publishes a replacement under the slot's
/// mutex: in-flight batches finish against the snapshot they pinned,
/// later batches see the new oracle, and each shard drops its cache the
/// first time it runs under a new generation — a batch waits at most for
/// one two-pointer copy at its start, and never observes a torn oracle
/// or a stale cached answer.
///
/// The usual backing oracle is a SketchStore (the one sketch-set class,
/// built, loaded into one heap buffer, or mapped — swapping between a
/// heap and a mapped store of one file is a plain swap()), but any
/// registered scheme serves: a landmark table, the exact matrix.
///
/// \code
///   auto oracle = SketchStore::load_oracle("net.sketch");
///   QueryService service(std::move(oracle), {.shards = 8, .threads = 8,
///                                            .cache_capacity = 4096});
///   service.query_batch(pairs, answers);  // answers[i] == oracle->query(...)
///   service.swap(rebuilt);                // hot-swap, batches never torn
///   service.stats().qps;
/// \endcode
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/oracle.hpp"
#include "obs/metrics.hpp"
#include "serve/answer_cache.hpp"
#include "serve/snapshot.hpp"
#include "util/pair_key.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

/// dsketch — distributed distance sketches (library root namespace).
namespace dsketch {

/// Shard, thread, and cache sizing for a QueryService.
struct QueryServiceConfig {
  /// Partitions of the pair space; 0 picks max(8, 4 x threads). Lanes
  /// pull shards one at a time, so a few shards per thread keeps uneven
  /// slices balanced — the auto default does.
  std::size_t shards = 0;
  std::size_t threads = 0;         ///< pool lanes; 0 = hardware concurrency
  /// Per-shard answer-cache entries (serve/answer_cache.hpp: 4-way sets,
  /// LRU within a set), rounded up to whole sets; 0 disables the cache.
  std::size_t cache_capacity = 0;
  /// When false, shard slices skip latency recording entirely (no timer
  /// read, no histogram update). The counters (queries/hits) still run —
  /// they are integral to cache behavior, not observability. This is the
  /// measured "observability off" mode of the obs_overhead bench rows.
  bool collect_metrics = true;
  /// Last-line failover oracle for a slice whose batch call throws when no
  /// previous generation exists (typically baselines' ExactOracle over the
  /// graph). See the file comment for the failover rule.
  std::shared_ptr<const DistanceOracle> fallback;
};

/// Service-wide roll-up of per-shard counters (see QueryService::stats).
struct QueryServiceStats {
  std::uint64_t queries = 0;     ///< total pairs answered
  /// Pairs answered without a merge: from a shard's cache, or as a repeat
  /// of a pair missed earlier in the same slice.
  std::uint64_t cache_hits = 0;
  std::uint64_t batches = 0;     ///< query_batch calls
  std::uint64_t swaps = 0;       ///< oracles hot-swapped in
  std::uint64_t generation = 0;  ///< current snapshot generation
  std::uint64_t cache_invalidations = 0;  ///< shard caches dropped on swap
  double wall_seconds = 0;    ///< total query_batch wall time
  double qps = 0;             ///< queries / wall_seconds
  double hit_rate = 0;        ///< cache_hits / queries
  /// Roll-up of the per-shard slice latency histograms.
  Summary slice_latency_us;
  std::vector<std::uint64_t> shard_queries;  ///< load balance view

  // Failover counters (see the file comment). Every pair a throwing batch
  // call left unanswered counts once in query_failures and once in exactly
  // one of the three answer counters.
  std::uint64_t query_failures = 0;    ///< pairs whose batch call threw
  std::uint64_t stale_answers = 0;     ///< served from previous generation
  std::uint64_t fallback_answers = 0;  ///< served from the fallback oracle
  std::uint64_t shed_answers = 0;      ///< kInfDist, no failover available
};

/// The sharded batch query engine (see the file comment for the model).
/// Thread model: any number of threads may call swap()/generation()/
/// snapshot() concurrently with the batch driver, but batches themselves
/// come from one driver thread at a time (shard state is unsynchronized).
class QueryService {
 public:
  /// A query: ordered (source, target) node pair.
  using Pair = QueryPair;

  /// Non-owning compat constructor: the oracle must outlive the service
  /// (and any oracle later swap()ped in manages its own lifetime).
  explicit QueryService(const DistanceOracle& oracle,
                        QueryServiceConfig cfg = {});

  /// Owning constructor — the hot-swap pipeline's entry point.
  explicit QueryService(std::shared_ptr<const DistanceOracle> oracle,
                        QueryServiceConfig cfg = {});

  /// Answers out[i] = oracle.query(pairs[i]) for every i against the
  /// snapshot pinned at batch start; out.size() must equal pairs.size().
  /// Deterministic regardless of shard/thread count. Returns the
  /// generation of the snapshot that answered the batch.
  std::uint64_t query_batch(std::span<const Pair> pairs,
                            std::span<Dist> out);

  /// Single-pair convenience (routes through the owning shard's cache).
  Dist query(NodeId u, NodeId v);

  /// Publishes `next` as the serving oracle and returns its generation.
  /// A short critical section in the slot: concurrent query_batch calls
  /// never mix oracles within a batch; each shard's cache is dropped the
  /// first time it serves under the new generation.
  std::uint64_t swap(std::shared_ptr<const DistanceOracle> next);

  /// The currently published snapshot (oracle + generation).
  OracleSnapshot snapshot() const { return slot_.load(); }
  /// Generation of the currently published oracle (0 until a swap).
  std::uint64_t generation() const { return slot_.generation(); }

  /// Rolls the shard-private counters up into one service-wide view.
  QueryServiceStats stats() const;
  /// Zeroes all counters and latency samples (caches stay warm).
  void reset_stats();

  /// Publishes the current stats into `registry` under serve_* names
  /// (counters/gauges overwritten, the slice-latency histogram replaced
  /// by a fresh merge). Pull-model: call before exporting the registry.
  void export_metrics(obs::MetricsRegistry& registry) const;

  /// Number of pair-space partitions.
  std::size_t num_shards() const { return shards_.size(); }
  /// Pool lanes incl. the calling thread.
  std::size_t num_threads() const { return pool_.size() + 1; }

 private:
  struct Shard {
    AnswerCache cache;
    /// Generation whose answers the cache holds; a batch under a newer
    /// snapshot clears the cache before serving from it.
    std::uint64_t cache_generation = 0;
    std::uint64_t queries = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t invalidations = 0;
    /// Latency of this shard's batch slices. Fixed-memory log-bucketed
    /// histogram (~0.8% relative error): bounded under sustained load,
    /// merged across shards at stats() time without a copy+sort.
    obs::LatencyHistogram slice_latency_us;
    // Scratch reused across batches: the pair indices of this batch's
    // slice, its cache misses as (key, pair index), and the distinct
    // missed pairs with their answers (the batch call's input and output).
    std::vector<std::uint32_t> slice;
    std::vector<std::pair<std::uint64_t, std::uint32_t>> misses;
    std::vector<Pair> miss_pairs;
    std::vector<Dist> miss_answers;

    std::uint64_t failures = 0;
    std::uint64_t stale_answers = 0;
    std::uint64_t fallback_answers = 0;
    std::uint64_t shed_answers = 0;
  };

  // Cache identity: ordered_pair_key for orientation-dependent oracles,
  // canonical_pair_key (also the routing identity) for symmetric ones.
  std::size_t shard_of(std::uint64_t key) const {
    // One splitmix64 step spreads sequential ids across shards.
    return static_cast<std::size_t>(splitmix64(key) % shards_.size());
  }

  void run_shard(Shard& shard, const PinnedSnapshots& pinned,
                 std::span<const Pair> pairs, std::span<Dist> out);
  /// Answers a slice's missed pairs from the failover chain (previous
  /// generation, then fallback, then kInfDist) after the primary's batch
  /// call threw, bumping the matching counters.
  void answer_degraded(Shard& shard, const PinnedSnapshots& pinned,
                       std::span<const Pair> pairs, std::span<Dist> out);

  OracleSlot slot_;
  QueryServiceConfig cfg_;
  ThreadPool pool_;
  std::vector<Shard> shards_;
  std::uint64_t batches_ = 0;
  std::atomic<std::uint64_t> swaps_{0};  ///< written by swapper threads
  double wall_seconds_ = 0;
};

}  // namespace dsketch
