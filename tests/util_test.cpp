#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/fifo.hpp"
#include "util/flat_map.hpp"
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

// ---- FlatMap -----------------------------------------------------------

using IdMap = FlatMap<std::uint32_t, std::uint64_t>;

/// The first `count` keys (from 0 up) whose home slot in an 8-slot table
/// is `slot`: a single-entry map holds its key at home.
std::vector<std::uint32_t> keys_homed_at(std::size_t slot, std::size_t count) {
  std::vector<std::uint32_t> keys;
  for (std::uint32_t k = 0; keys.size() < count; ++k) {
    IdMap probe;
    probe[k] = 0;
    EXPECT_EQ(probe.capacity(), 8u);
    if (probe.slot_of(k) == slot) keys.push_back(k);
  }
  return keys;
}

TEST(FlatMap, EraseMovesAWrappedEntryBackToItsHome) {
  // a and b both hash to the last slot, so b wraps to slot 0; c hashes to
  // slot 0 and lands behind b in slot 1. Erasing a must shift b back to
  // its home and c back to its own, or a lookup of b would stop at the
  // freed last slot.
  const std::vector<std::uint32_t> last = keys_homed_at(7, 2);
  const std::uint32_t a = last[0], b = last[1];
  const std::uint32_t c = keys_homed_at(0, 1)[0];
  IdMap m;
  m[a] = 10;
  m[b] = 20;
  m[c] = 30;
  ASSERT_EQ(m.capacity(), 8u);
  EXPECT_EQ(m.slot_of(a), 7u);
  EXPECT_EQ(m.slot_of(b), 0u);
  EXPECT_EQ(m.slot_of(c), 1u);

  EXPECT_TRUE(m.erase(a));
  EXPECT_FALSE(m.erase(a));
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.find(a), nullptr);
  EXPECT_EQ(m.slot_of(a), m.capacity());
  EXPECT_EQ(m.slot_of(b), 7u);
  EXPECT_EQ(m.slot_of(c), 0u);
  ASSERT_NE(m.find(b), nullptr);
  EXPECT_EQ(*m.find(b), 20u);
  ASSERT_NE(m.find(c), nullptr);
  EXPECT_EQ(*m.find(c), 30u);

  // Reinsert across the wrap and erase the entry in slot 0: b stays put.
  m[a] = 11;
  EXPECT_EQ(m.slot_of(a), 1u);
  EXPECT_TRUE(m.erase(c));
  EXPECT_EQ(m.slot_of(b), 7u);
  EXPECT_EQ(m.slot_of(a), 0u);
  EXPECT_EQ(*m.find(a), 11u);
}

TEST(FlatMap, GrowsPastTheLoadLimit) {
  IdMap m;
  EXPECT_EQ(m.capacity(), 0u);
  EXPECT_EQ(m.find(5), nullptr);
  for (std::uint32_t k = 0; k < 1000; ++k) {
    const auto [value, inserted] = m.try_emplace(k * 7919);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(*value, 0u);  // value-initialized
    *value = k;
    // The load never passes one half, and the capacity stays a power of 2.
    EXPECT_LE(2 * m.size(), m.capacity());
    EXPECT_EQ(m.capacity() & (m.capacity() - 1), 0u);
  }
  EXPECT_EQ(m.size(), 1000u);
  for (std::uint32_t k = 0; k < 1000; ++k) {
    ASSERT_NE(m.find(k * 7919), nullptr);
    EXPECT_EQ(*m.find(k * 7919), k);
  }
  const auto [again, inserted] = m.try_emplace(7919);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(*again, 1u);
}

TEST(FlatMap, ClearKeepsCapacityForReuse) {
  FlatMap<std::pair<std::uint32_t, std::uint64_t>, int> m;
  for (std::uint32_t k = 0; k < 40; ++k) m[{k, k + 100}] = static_cast<int>(k);
  const std::size_t cap = m.capacity();
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.capacity(), cap);
  EXPECT_EQ(m.find({3, 103}), nullptr);
  // Reuse: the same ids with other values are distinct keys.
  for (std::uint32_t k = 0; k < 40; ++k) m[{k, k}] = -static_cast<int>(k);
  EXPECT_EQ(m.size(), 40u);
  EXPECT_EQ(m.capacity(), cap);
  EXPECT_EQ(m.find({3, 103}), nullptr);
  ASSERT_NE(m.find({3, 3}), nullptr);
  EXPECT_EQ(*m.find({3, 3}), -3);
}

TEST(FlatMap, ForEachVisitsEveryLiveKeyOnce) {
  IdMap m;
  for (std::uint32_t k = 0; k < 300; ++k) m[k] = 2 * k;
  for (std::uint32_t k = 0; k < 300; k += 3) EXPECT_TRUE(m.erase(k));
  std::multiset<std::uint32_t> seen;
  m.for_each([&](std::uint32_t k, std::uint64_t v) {
    EXPECT_EQ(v, 2u * k);
    seen.insert(k);
  });
  std::multiset<std::uint32_t> expected;
  for (std::uint32_t k = 0; k < 300; ++k) {
    if (k % 3 != 0) expected.insert(k);
  }
  EXPECT_EQ(seen, expected);
}

TEST(FlatMap, RandomOperationsMatchUnorderedMap) {
  // A small key universe keeps probe runs long and wrapping, so every
  // erase exercises the backward shift.
  Rng rng(17);
  FlatMap<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t> m;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  for (int step = 0; step < 20000; ++step) {
    const auto id = static_cast<std::uint32_t>(rng.below(24));
    const std::uint64_t value = rng.below(3);
    const std::uint64_t ref_key = id * 8 + value;
    if (rng.below(3) == 0) {
      EXPECT_EQ(m.erase({id, value}), ref.erase(ref_key) == 1);
    } else {
      m[{id, value}] = static_cast<std::uint64_t>(step);
      ref[ref_key] = static_cast<std::uint64_t>(step);
    }
    ASSERT_EQ(m.size(), ref.size());
    if (step % 97 == 0) {
      m.clear();
      ref.clear();
    }
  }
  for (std::uint32_t id = 0; id < 24; ++id) {
    for (std::uint64_t value = 0; value < 3; ++value) {
      const auto it = ref.find(id * 8 + value);
      const std::uint64_t* got = m.find({id, value});
      ASSERT_EQ(got != nullptr, it != ref.end());
      if (got != nullptr) {
        EXPECT_EQ(*got, it->second);
      }
    }
  }
}

TEST(Fifo, PopsInPushOrderAcrossCompaction) {
  Fifo<int> q;
  EXPECT_TRUE(q.empty());
  int next_out = 0;
  for (int i = 0; i < 500; ++i) {
    q.push(i);
    if (i % 3 == 2) {
      EXPECT_EQ(q.front(), next_out++);
      q.pop();
    }
  }
  EXPECT_EQ(q.size(), static_cast<std::size_t>(500 - next_out));
  while (!q.empty()) {
    EXPECT_EQ(q.front(), next_out++);
    q.pop();
  }
  EXPECT_EQ(next_out, 500);
  q.push(7);
  q.clear();
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace dsketch
