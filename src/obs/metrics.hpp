// Observability metrics core: counters, gauges, and a fixed-memory
// log-bucketed latency histogram.
//
// The histogram is the load-bearing piece: the serving tier records one
// sample per shard slice under sustained load, so the container must be
//   - fixed memory (no unbounded sample vectors),
//   - lock-free on the record path (relaxed std::atomic buckets),
//   - mergeable, so per-shard/per-thread instances roll up at stats()
//     time without a stop-the-world pause.
//
// Bucketing is log-linear over the IEEE-754 representation: the bucket
// index is (exponent, top kSubBits mantissa bits), i.e. 2^kSubBits
// equal-width sub-buckets per octave. Reporting the arithmetic midpoint
// of a bucket bounds the relative error by 1 / 2^(kSubBits+1) ≈ 0.78%
// for kSubBits = 6 — comfortably inside the ~1% design target and the
// 2% acceptance bound, at ~30 KiB per histogram.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "util/stats.hpp"

namespace dsketch::obs {

/// Monotonic (by convention) event count. set() exists for pull-model
/// exporters that copy an externally-maintained total into the registry.
class Counter {
 public:
  void inc(std::uint64_t by = 1) { v_.fetch_add(by, std::memory_order_relaxed); }
  void set(std::uint64_t v) { v_.store(v, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Point-in-time double value (generation number, hit rate, qps, ...).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-memory log-bucketed histogram; see file comment for the design.
/// All mutating entry points are safe to call concurrently; snapshots
/// (summary/percentile/merge-from) read with relaxed loads and are
/// linearizable per bucket, not across buckets — good enough for
/// monitoring, and exactly the contract the TSan test pins down.
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 6;                    ///< sub-buckets/octave
  static constexpr int kSubBuckets = 1 << kSubBits;     ///< 64
  static constexpr int kMinExp = -20;                   ///< ~9.5e-7
  static constexpr int kMaxExp = 40;                    ///< ~1.1e12
  static constexpr double kMinValue = 0x1p-20;
  static constexpr double kMaxValue = 0x1p40;
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kMaxExp - kMinExp) << kSubBits;  // 3840

  LatencyHistogram() = default;
  // Copyable so aggregates holding one stay movable/copyable; the copy is
  // a relaxed-load snapshot (same per-bucket consistency as summary()).
  LatencyHistogram(const LatencyHistogram& o) { merge(o); }
  LatencyHistogram& operator=(const LatencyHistogram& o) {
    if (this != &o) {
      reset();
      merge(o);
    }
    return *this;
  }

  /// Records one sample. Non-positive and NaN inputs clamp to the lowest
  /// bucket (latencies are positive; a 0 from timer quantization should
  /// count, not vanish).
  void record(double v);

  /// Folds another histogram's relaxed-load snapshot into this one.
  void merge(const LatencyHistogram& o);

  void reset();

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return load_d(sum_bits_); }
  double mean() const {
    const std::uint64_t c = count();
    return c ? sum() / static_cast<double>(c) : 0.0;
  }
  double min() const { return count() ? load_d(min_bits_) : 0.0; }
  double max() const { return count() ? load_d(max_bits_) : 0.0; }

  /// Percentile estimate (same rank convention as percentile_sorted):
  /// the representative value of the bucket containing rank
  /// pct/100*(count-1), clamped into [min, max] so exact extremes win.
  double percentile(double pct) const;

  /// Rolls count/mean/min/max (exact) and p50/p95/p99/stddev (bucketed)
  /// into the shared harness Summary shape.
  Summary summary() const;

  // Bucket math, exposed for the accuracy tests.
  static std::size_t bucket_of(double v);
  static double bucket_value(std::size_t b);  ///< arithmetic midpoint
  std::uint64_t bucket_count(std::size_t b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }

 private:
  static double load_d(const std::atomic<std::uint64_t>& bits) {
    const std::uint64_t u = bits.load(std::memory_order_relaxed);
    double d;
    static_assert(sizeof(d) == sizeof(u));
    __builtin_memcpy(&d, &u, sizeof(d));
    return d;
  }
  static void fetch_add_d(std::atomic<std::uint64_t>& bits, double v);
  static void fetch_min_d(std::atomic<std::uint64_t>& bits, double v);
  static void fetch_max_d(std::atomic<std::uint64_t>& bits, double v);

  // +inf / -inf identity elements make min/max updates race-free
  // without an "is initialized" flag.
  static constexpr std::uint64_t kPosInfBits = 0x7FF0000000000000ULL;
  static constexpr std::uint64_t kNegInfBits = 0xFFF0000000000000ULL;

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_bits_{0};            // double bits, CAS-added
  std::atomic<std::uint64_t> min_bits_{kPosInfBits};  // valid iff count_ > 0
  std::atomic<std::uint64_t> max_bits_{kNegInfBits};
};

/// Named metric directory. counter()/gauge()/histogram() return stable
/// references (the registry never erases). Exporters walk the directory
/// in name order.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  LatencyHistogram& histogram(const std::string& name);

  /// One JSON line per metric: {"metric":name,"kind":...,...}.
  /// Histograms emit count/mean/min/max plus p50/p95/p99.
  void write_json(std::ostream& out) const;

  /// Prometheus text exposition: counters/gauges as single samples,
  /// histograms as summaries with quantile labels.
  void write_prometheus(std::ostream& out) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
};

}  // namespace dsketch::obs
