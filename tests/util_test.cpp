#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace dsketch {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(9);
  double sum = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / trials, 0.5, 0.01);
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t x = rng.below(17);
    EXPECT_LT(x, 17u);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 17u);  // all residues hit
}

TEST(Rng, RangeInclusive) {
  Rng rng(13);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto x = rng.range(-3, 3);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 3);
    hit_lo = hit_lo || x == -3;
    hit_hi = hit_hi || x == 3;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Rng, SplitStreamsIndependent) {
  Rng base(5);
  Rng a = base.split(1);
  Rng b = base.split(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Accumulator, BasicMoments) {
  Accumulator acc;
  for (const double x : {1.0, 2.0, 3.0, 4.0, 5.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 5u);
  EXPECT_DOUBLE_EQ(acc.mean(), 3.0);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 5.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 2.5);
}

TEST(Accumulator, EmptyIsZero) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.variance(), 0.0);
}

TEST(Percentile, NearestRankInterpolation) {
  std::vector<double> xs{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 25.0);
}

TEST(SampleSet, TracksSamplesAndStats) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_EQ(s.count(), 100u);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
  EXPECT_NEAR(s.p(95), 95.0, 1.0);
}

TEST(ThreadPool, RunsAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, RepeatedInvocations) {
  ThreadPool pool(3);
  std::atomic<std::int64_t> sum{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(100, [&](std::size_t i) {
      sum += static_cast<std::int64_t>(i);
    });
  }
  EXPECT_EQ(sum.load(), 50 * (99 * 100 / 2));
}

TEST(ThreadPool, SingleThreadFallback) {
  ThreadPool pool(1);
  std::vector<int> hits(64, 0);
  pool.parallel_for(64, [&](std::size_t i) { hits[i]++; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 64);
}

TEST(ThreadPool, ZeroCountIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, DynamicRunsAllIndicesWithValidLanes) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(777);
  std::atomic<bool> bad_lane{false};
  pool.for_each_dynamic(777, [&](std::size_t lane, std::size_t i) {
    if (lane >= pool.lanes()) bad_lane = true;
    hits[i]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_FALSE(bad_lane.load());
}

TEST(ThreadPool, DynamicNestedCallDegradesToSerial) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  pool.for_each_dynamic(8, [&](std::size_t, std::size_t) {
    // Re-entrant use from inside a pool task must not deadlock.
    pool.for_each_dynamic(4, [&](std::size_t, std::size_t) { total++; });
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPool, WorkerExceptionRethrownAtJoin) {
  // A body throwing on a worker lane must not call std::terminate; the
  // exception surfaces on the calling thread once all lanes quiesce.
  ThreadPool pool(4);
  const auto boom = [](std::size_t i) {
    if (i == 950) throw std::runtime_error("worker boom");
  };
  EXPECT_THROW(pool.parallel_for(1000, boom), std::runtime_error);
}

TEST(ThreadPool, CallerExceptionRethrownAfterWorkersQuiesce) {
  // Index 0 is pulled first, usually by the calling thread: whichever lane
  // throws, the rethrow must still wait for the other lanes to quiesce.
  ThreadPool pool(4);
  std::atomic<int> done{0};
  const auto boom = [&](std::size_t i) {
    if (i == 0) {
      // Wait until another lane has made progress so the rethrow really
      // races against in-flight lanes, then throw.
      while (done.load() == 0) std::this_thread::yield();
      throw std::runtime_error("caller boom");
    }
    done++;
  };
  EXPECT_THROW(pool.parallel_for(1000, boom), std::runtime_error);
  EXPECT_GT(done.load(), 0);  // workers really ran alongside
}

TEST(ThreadPool, DynamicExceptionStopsPullingAndRethrows) {
  ThreadPool pool(4);
  std::atomic<int> executed{0};
  const auto boom = [&](std::size_t, std::size_t i) {
    if (i == 10) throw std::runtime_error("dynamic boom");
    executed++;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  };
  EXPECT_THROW(pool.for_each_dynamic(100000, boom), std::runtime_error);
  // Lanes noticed the error and stopped pulling long before the end.
  EXPECT_LT(executed.load(), 100000);
}

TEST(ThreadPool, PoolStaysUsableAfterAnException) {
  // The error is cleared per invocation: the next loops run clean on both
  // entry points.
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(
                   500, [](std::size_t i) {
                     if (i == 250) throw std::runtime_error("x");
                   }),
               std::runtime_error);
  std::atomic<int> total{0};
  pool.parallel_for(500, [&](std::size_t) { total++; });
  pool.for_each_dynamic(500, [&](std::size_t, std::size_t) { total++; });
  EXPECT_EQ(total.load(), 1000);
}

TEST(ThreadPool, SerialFallbackPropagatesDirectly) {
  ThreadPool pool(1);  // no workers: serial path
  EXPECT_THROW(pool.parallel_for(
                   8, [](std::size_t i) {
                     if (i == 3) throw std::runtime_error("serial");
                   }),
               std::runtime_error);
}

TEST(ThreadPool, ConcurrentCallersAreSafe) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 6; ++c) {
    callers.emplace_back([&] {
      for (int round = 0; round < 20; ++round) {
        pool.for_each_dynamic(50, [&](std::size_t, std::size_t) { total++; });
        pool.parallel_for(50, [&](std::size_t) { total++; });
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), 6 * 20 * 100);
}

}  // namespace
}  // namespace dsketch
