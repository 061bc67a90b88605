#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace dsketch::obs {
namespace {

TEST(LatencyHistogram, BucketMathIsMonotoneAndTight) {
  // Buckets never decrease as values grow, and the representative of a
  // value's bucket is within the design bound of the value itself.
  constexpr double kMaxRelError = 1.0 / (2 << LatencyHistogram::kSubBits);
  double prev_bucket = 0;
  for (double v = 1e-6; v < 1e11; v *= 1.07) {
    const std::size_t b = LatencyHistogram::bucket_of(v);
    ASSERT_GE(b, prev_bucket);
    prev_bucket = static_cast<double>(b);
    if (v >= LatencyHistogram::kMinValue && v < LatencyHistogram::kMaxValue) {
      const double rep = LatencyHistogram::bucket_value(b);
      EXPECT_LE(std::abs(rep - v) / v, kMaxRelError)
          << "v=" << v << " rep=" << rep;
    }
  }
}

TEST(LatencyHistogram, NonPositiveAndNanClampToLowestBucket) {
  LatencyHistogram h;
  h.record(0.0);
  h.record(-3.5);
  h.record(std::nan(""));
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.bucket_count(0), 3u);
}

TEST(LatencyHistogram, ExactMomentsAndExtremes) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.percentile(50), 0.0);
  h.record(2.0);
  h.record(10.0);
  h.record(4.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 16.0);
  EXPECT_DOUBLE_EQ(h.mean(), 16.0 / 3.0);
  // min/max are exact recorded values, not bucket representatives.
  EXPECT_DOUBLE_EQ(h.min(), 2.0);
  EXPECT_DOUBLE_EQ(h.max(), 10.0);
}

/// Shared accuracy check: percentiles of the histogram must agree with
/// exact percentiles of the raw samples within 2% (the acceptance
/// bound; the bucket design targets ~1%).
void expect_percentiles_close(const std::vector<double>& samples,
                              const char* what) {
  LatencyHistogram h;
  for (const double s : samples) h.record(s);
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  for (const double pct : {10.0, 50.0, 90.0, 95.0, 99.0}) {
    const double exact = percentile_sorted(sorted, pct);
    const double est = h.percentile(pct);
    ASSERT_GT(exact, 0.0);
    EXPECT_LE(std::abs(est - exact) / exact, 0.02)
        << what << " p" << pct << ": exact=" << exact << " est=" << est;
  }
}

TEST(LatencyHistogram, AccuracyUniform) {
  Rng rng(1);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    samples.push_back(1.0 + 999.0 * rng.uniform());
  }
  expect_percentiles_close(samples, "uniform");
}

TEST(LatencyHistogram, AccuracyZipfLike) {
  // Heavy-tailed: latencies spanning several orders of magnitude.
  Rng rng(2);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    samples.push_back(0.5 * std::pow(10.0, 4.0 * rng.uniform()));
  }
  expect_percentiles_close(samples, "zipf");
}

TEST(LatencyHistogram, AccuracyBimodal) {
  // Cache-hit vs oracle-miss shape: two tight modes far apart.
  Rng rng(3);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    const double base = rng.uniform() < 0.8 ? 2.0 : 300.0;
    samples.push_back(base * (1.0 + 0.05 * rng.uniform()));
  }
  expect_percentiles_close(samples, "bimodal");
}

TEST(LatencyHistogram, MergeMatchesSingleWriterExactly) {
  // Recording a multiset split across threads and merging must equal
  // recording it all into one histogram: bucket counts, count, sum,
  // min, max — bit-for-bit (addition of identical doubles in any
  // grouping here, since each value is added once per histogram).
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::vector<double>> per_thread(kThreads);
  Rng rng(7);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      per_thread[t].push_back(0.1 * std::pow(10.0, 3.0 * rng.uniform()));
    }
  }

  std::vector<LatencyHistogram> parts(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const double v : per_thread[t]) parts[t].record(v);
    });
  }
  for (std::thread& th : threads) th.join();

  LatencyHistogram merged;
  for (const LatencyHistogram& p : parts) merged.merge(p);

  LatencyHistogram reference;
  for (const auto& vs : per_thread) {
    for (const double v : vs) reference.record(v);
  }

  EXPECT_EQ(merged.count(), reference.count());
  EXPECT_DOUBLE_EQ(merged.min(), reference.min());
  EXPECT_DOUBLE_EQ(merged.max(), reference.max());
  EXPECT_NEAR(merged.sum(), reference.sum(), 1e-6 * reference.sum());
  for (std::size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
    ASSERT_EQ(merged.bucket_count(b), reference.bucket_count(b))
        << "bucket " << b;
  }
  EXPECT_DOUBLE_EQ(merged.percentile(50), reference.percentile(50));
  EXPECT_DOUBLE_EQ(merged.percentile(99), reference.percentile(99));
}

TEST(LatencyHistogram, ConcurrentRecordAndSnapshot) {
  // Races record() against summary()/merge() readers; correctness here
  // is "no torn state and sane invariants", and under
  // -DDSKETCH_SANITIZE=thread this is the TSan probe for the whole
  // metrics core.
  LatencyHistogram h;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      Rng rng(100 + t);
      for (int i = 0; i < 20000; ++i) {
        h.record(1.0 + 100.0 * rng.uniform());
      }
    });
  }
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const Summary s = h.summary();
      EXPECT_LE(s.min, s.max + 1e-12);
      LatencyHistogram copy;
      copy.merge(h);
      EXPECT_LE(copy.count(), 4u * 20000u);
    }
  });
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(h.count(), 4u * 20000u);
  const Summary s = h.summary();
  EXPECT_GE(s.min, 1.0);
  EXPECT_LE(s.max, 101.0);
  EXPECT_GE(s.p99, s.p50);
}

TEST(LatencyHistogram, ResetAndCopySemantics) {
  LatencyHistogram h;
  h.record(5.0);
  h.record(50.0);
  LatencyHistogram copy = h;  // snapshot copy
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(50), 0.0);
  EXPECT_EQ(copy.count(), 2u);
  EXPECT_DOUBLE_EQ(copy.min(), 5.0);
  EXPECT_DOUBLE_EQ(copy.max(), 50.0);
  h = copy;
  EXPECT_EQ(h.count(), 2u);
}

TEST(MetricsRegistry, StableRefsAndExporters) {
  MetricsRegistry reg;
  Counter& c = reg.counter("requests_total");
  c.inc();
  c.inc(2);
  EXPECT_EQ(&c, &reg.counter("requests_total"));
  EXPECT_EQ(reg.counter("requests_total").value(), 3u);
  reg.gauge("hit_rate").set(0.75);
  LatencyHistogram& h = reg.histogram("latency_us");
  h.record(10.0);
  h.record(20.0);

  std::ostringstream json;
  reg.write_json(json);
  const std::string j = json.str();
  EXPECT_NE(j.find("\"metric\":\"requests_total\""), std::string::npos);
  EXPECT_NE(j.find("\"kind\":\"counter\""), std::string::npos);
  EXPECT_NE(j.find("\"value\":3"), std::string::npos);
  EXPECT_NE(j.find("\"metric\":\"hit_rate\""), std::string::npos);
  EXPECT_NE(j.find("\"metric\":\"latency_us\""), std::string::npos);
  EXPECT_NE(j.find("\"count\":2"), std::string::npos);
  EXPECT_NE(j.find("\"p99\""), std::string::npos);

  std::ostringstream prom;
  reg.write_prometheus(prom);
  const std::string p = prom.str();
  EXPECT_NE(p.find("# TYPE requests_total counter"), std::string::npos);
  EXPECT_NE(p.find("requests_total 3"), std::string::npos);
  EXPECT_NE(p.find("# TYPE hit_rate gauge"), std::string::npos);
  EXPECT_NE(p.find("# TYPE latency_us summary"), std::string::npos);
  EXPECT_NE(p.find("latency_us{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(p.find("latency_us_count 2"), std::string::npos);
}

}  // namespace
}  // namespace dsketch::obs
