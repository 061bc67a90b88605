#include "obs/metrics.hpp"

#include <bit>
#include <cmath>
#include <ostream>

#include "util/json_lines.hpp"

namespace dsketch::obs {

namespace {

std::uint64_t d_bits(double v) { return std::bit_cast<std::uint64_t>(v); }
double bits_d(std::uint64_t u) { return std::bit_cast<double>(u); }

}  // namespace

void LatencyHistogram::fetch_add_d(std::atomic<std::uint64_t>& bits,
                                   double v) {
  std::uint64_t cur = bits.load(std::memory_order_relaxed);
  while (!bits.compare_exchange_weak(cur, d_bits(bits_d(cur) + v),
                                     std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
  }
}

void LatencyHistogram::fetch_min_d(std::atomic<std::uint64_t>& bits,
                                   double v) {
  std::uint64_t cur = bits.load(std::memory_order_relaxed);
  while (bits_d(cur) > v &&
         !bits.compare_exchange_weak(cur, d_bits(v),
                                     std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
  }
}

void LatencyHistogram::fetch_max_d(std::atomic<std::uint64_t>& bits,
                                   double v) {
  std::uint64_t cur = bits.load(std::memory_order_relaxed);
  while (bits_d(cur) < v &&
         !bits.compare_exchange_weak(cur, d_bits(v),
                                     std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
  }
}

std::size_t LatencyHistogram::bucket_of(double v) {
  if (!(v >= kMinValue)) return 0;  // also catches NaN and non-positives
  if (v >= kMaxValue) return kBuckets - 1;
  const std::uint64_t bits = d_bits(v);
  const int exp = static_cast<int>((bits >> 52) & 0x7ff) - 1023;
  const std::uint64_t sub = (bits >> (52 - kSubBits)) & (kSubBuckets - 1);
  return (static_cast<std::size_t>(exp - kMinExp) << kSubBits) |
         static_cast<std::size_t>(sub);
}

double LatencyHistogram::bucket_value(std::size_t b) {
  const int exp = kMinExp + static_cast<int>(b >> kSubBits);
  const double sub = static_cast<double>(b & (kSubBuckets - 1));
  // Arithmetic midpoint of [lo, hi) where the bucket spans one
  // sub-bucket of the octave [2^exp, 2^(exp+1)).
  return std::ldexp(1.0 + (sub + 0.5) / kSubBuckets, exp);
}

void LatencyHistogram::record(double v) {
  if (!(v > 0.0)) v = kMinValue;  // clamp zeros/negatives/NaN, keep the count
  buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  fetch_add_d(sum_bits_, v);
  fetch_min_d(min_bits_, v);
  fetch_max_d(max_bits_, v);
}

void LatencyHistogram::merge(const LatencyHistogram& o) {
  const std::uint64_t oc = o.count();
  if (oc == 0) return;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const std::uint64_t c = o.buckets_[b].load(std::memory_order_relaxed);
    if (c) buckets_[b].fetch_add(c, std::memory_order_relaxed);
  }
  count_.fetch_add(oc, std::memory_order_relaxed);
  fetch_add_d(sum_bits_, o.sum());
  fetch_min_d(min_bits_, o.min());
  fetch_max_d(max_bits_, o.max());
}

void LatencyHistogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_bits_.store(0, std::memory_order_relaxed);
  min_bits_.store(kPosInfBits, std::memory_order_relaxed);
  max_bits_.store(kNegInfBits, std::memory_order_relaxed);
}

double LatencyHistogram::percentile(double pct) const {
  const std::uint64_t c = count();
  if (c == 0) return 0.0;
  // Same convention as percentile_sorted: fractional rank over count-1,
  // linearly interpolated between the two straddled order statistics
  // (each read off as its bucket's representative). Without the
  // interpolation, small sample counts would disagree with the exact
  // percentile by far more than the bucket error.
  const double target = std::min(std::max(pct, 0.0), 100.0) / 100.0 *
                        static_cast<double>(c - 1);
  const auto lo_rank = static_cast<std::uint64_t>(target);
  const double frac = target - static_cast<double>(lo_rank);
  double lo = 0.0;
  double hi = 0.0;
  bool have_lo = false;
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const std::uint64_t bc = buckets_[b].load(std::memory_order_relaxed);
    if (bc == 0) continue;
    cum += bc;
    if (!have_lo && cum >= lo_rank + 1) {
      lo = bucket_value(b);
      have_lo = true;
    }
    if (cum >= lo_rank + 2) {
      hi = bucket_value(b);
      const double v = lo + frac * (hi - lo);
      // Exact extremes beat the bucket representatives at the edges.
      return std::min(std::max(v, min()), max());
    }
  }
  // lo_rank is the last sample: nothing above it to interpolate toward.
  return max();
}

Summary LatencyHistogram::summary() const {
  Summary s;
  s.count = static_cast<std::size_t>(count());
  if (s.count == 0) return s;
  s.mean = mean();
  s.min = min();
  s.max = max();
  s.p50 = percentile(50);
  s.p95 = percentile(95);
  s.p99 = percentile(99);
  // Variance from bucket midpoints (the only approximate moment here).
  double m2 = 0.0;
  std::uint64_t n = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const std::uint64_t bc = buckets_[b].load(std::memory_order_relaxed);
    if (bc == 0) continue;
    const double d = bucket_value(b) - s.mean;
    m2 += static_cast<double>(bc) * d * d;
    n += bc;
  }
  if (n > 1) s.stddev = std::sqrt(m2 / static_cast<double>(n - 1));
  return s;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

LatencyHistogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<LatencyHistogram>();
  return *slot;
}

void MetricsRegistry::write_json(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) {
    bench::JsonLine line;
    line.add("metric", name).add("kind", "counter").add("value", c->value());
    line.emit(out);
  }
  for (const auto& [name, g] : gauges_) {
    bench::JsonLine line;
    line.add("metric", name).add("kind", "gauge").add("value", g->value());
    line.emit(out);
  }
  for (const auto& [name, h] : histograms_) {
    const Summary s = h->summary();
    bench::JsonLine line;
    line.add("metric", name)
        .add("kind", "histogram")
        .add("count", static_cast<std::uint64_t>(s.count))
        .add("mean", s.mean)
        .add("min", s.min)
        .add("p50", s.p50)
        .add("p95", s.p95)
        .add("p99", s.p99)
        .add("max", s.max);
    line.emit(out);
  }
}

void MetricsRegistry::write_prometheus(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  char buf[64];
  const auto num = [&buf](double v) {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return std::string(buf);
  };
  for (const auto& [name, c] : counters_) {
    out << "# TYPE " << name << " counter\n"
        << name << " " << c->value() << "\n";
  }
  for (const auto& [name, g] : gauges_) {
    out << "# TYPE " << name << " gauge\n"
        << name << " " << num(g->value()) << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    const Summary s = h->summary();
    out << "# TYPE " << name << " summary\n";
    out << name << "{quantile=\"0.5\"} " << num(s.p50) << "\n";
    out << name << "{quantile=\"0.95\"} " << num(s.p95) << "\n";
    out << name << "{quantile=\"0.99\"} " << num(s.p99) << "\n";
    out << name << "_sum " << num(h->sum()) << "\n";
    out << name << "_count " << s.count << "\n";
  }
}

}  // namespace dsketch::obs
