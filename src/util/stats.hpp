// Streaming and batch summary statistics used by the evaluation harness.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

namespace dsketch {

/// Online mean/min/max/variance accumulator (Welford).
class Accumulator {
 public:
  void add(double x) {
    ++count_;
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
  }

  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double variance() const {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Percentile over already-sorted samples (linear interpolation).
inline double percentile_sorted(const std::vector<double>& xs, double p) {
  if (xs.empty()) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

/// Batch percentile over a copy of the samples.
inline double percentile(std::vector<double> xs, double p) {
  std::sort(xs.begin(), xs.end());
  return percentile_sorted(xs, p);
}

/// Fixed-shape roll-up of a sample distribution. The single summary type
/// shared by the serving tier (shard-slice latencies) and the experiment
/// harness (stretch/size/latency rows), so reports agree on which
/// percentiles exist and how they are computed.
struct Summary {
  std::size_t count = 0;
  double mean = 0;
  double stddev = 0;
  double min = 0;
  double max = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
};

/// Collects samples and reports a compact summary; used for table rows.
class SampleSet {
 public:
  void add(double x) {
    samples_.push_back(x);
    acc_.add(x);
  }
  /// Folds another set's samples in (used to roll shard-local stats up
  /// into a service-wide view without re-collecting).
  void merge(const SampleSet& other) {
    for (const double x : other.samples_) add(x);
  }
  std::size_t count() const { return acc_.count(); }
  double mean() const { return acc_.mean(); }
  double min() const { return acc_.min(); }
  double max() const { return acc_.max(); }
  double stddev() const { return acc_.stddev(); }
  double p(double pct) const { return percentile(samples_, pct); }
  Summary summary() const {
    Summary s;
    s.count = count();
    s.mean = mean();
    s.stddev = stddev();
    s.min = min();
    s.max = max();
    // One copy + one sort covers every percentile.
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    s.p50 = percentile_sorted(sorted, 50);
    s.p95 = percentile_sorted(sorted, 95);
    s.p99 = percentile_sorted(sorted, 99);
    return s;
  }

 private:
  std::vector<double> samples_;
  Accumulator acc_;
};

}  // namespace dsketch
