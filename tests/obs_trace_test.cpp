#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <latch>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"

namespace dsketch::obs {
namespace {

/// Every test that starts a session stops it on exit, so a failing test
/// can't leave tracing enabled for its neighbors.
struct SessionGuard {
  ~SessionGuard() { TraceSession::stop(); }
};

TEST(Trace, DisabledIsANoOp) {
  TraceSession::stop();
  EXPECT_FALSE(TraceSession::enabled());
  { const Span span("ignored"); }
  EXPECT_EQ(TraceSession::stop(), nullptr);
}

TEST(Trace, SpansKeepNamesArgsDurationsAndNesting) {
  SessionGuard guard;
  const std::shared_ptr<TraceSession> session = TraceSession::start();
  EXPECT_TRUE(TraceSession::enabled());
  {
    const Span outer("outer", 7);
    {
      const Span inner("inner");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    const Span skipped(nullptr);  // a sampled call site's skip
  }
  TraceSession::stop();
  EXPECT_FALSE(TraceSession::enabled());
  EXPECT_EQ(session->event_count(), 2u);

  // Spans are kept in the order they closed.
  const std::vector<TraceSession::Event> events = session->events();
  ASSERT_EQ(events.size(), 2u);
  const TraceSession::Event& inner = events[0];
  const TraceSession::Event& outer = events[1];
  EXPECT_STREQ(outer.name, "outer");
  EXPECT_TRUE(outer.has_value);
  EXPECT_EQ(outer.value, 7u);
  EXPECT_STREQ(inner.name, "inner");
  EXPECT_FALSE(inner.has_value);
  EXPECT_GE(inner.dur_ns, 150'000u);  // slept 200us inside
  // inner nests inside outer on the same thread.
  EXPECT_EQ(inner.tid, outer.tid);
  EXPECT_GE(inner.start_ns, outer.start_ns);
  EXPECT_LE(inner.start_ns + inner.dur_ns, outer.start_ns + outer.dur_ns);
  EXPECT_EQ(session->check_nesting(), "");

  // The Chrome trace has one complete event per span, and the argument.
  std::ostringstream out;
  session->write_chrome_trace(out);
  const std::string json = out.str();
  std::size_t complete = 0;
  for (std::size_t at = json.find("\"ph\":\"X\""); at != std::string::npos;
       at = json.find("\"ph\":\"X\"", at + 1)) {
    ++complete;
  }
  EXPECT_EQ(complete, events.size());
  EXPECT_NE(json.find("\"args\":{\"v\":7}"), std::string::npos) << json;
}

TEST(Trace, NestingCheckerFlagsOverlap) {
  // Two real spans on one thread, closed in the order they opened, cross;
  // the check must name both. The sleeps keep every timestamp distinct.
  SessionGuard guard;
  std::shared_ptr<TraceSession> session = TraceSession::start();
  const auto pause = [] {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  };
  auto first = std::make_unique<Span>("first");
  pause();
  auto second = std::make_unique<Span>("second");
  pause();
  first.reset();
  pause();
  second.reset();
  TraceSession::stop();
  ASSERT_EQ(session->event_count(), 2u);
  const std::string crossing = session->check_nesting();
  EXPECT_NE(crossing.find("\"first\""), std::string::npos) << crossing;
  EXPECT_NE(crossing.find("\"second\""), std::string::npos) << crossing;

  // The same pattern with each span on its own thread is well nested.
  session = TraceSession::start();
  std::latch first_open(1), second_open(1), first_closed(1);
  std::thread a([&] {
    {
      const Span span("first");
      first_open.count_down();
      second_open.wait();
    }
    first_closed.count_down();
  });
  std::thread b([&] {
    first_open.wait();
    const Span span("second");
    second_open.count_down();
    first_closed.wait();
  });
  a.join();
  b.join();
  TraceSession::stop();
  ASSERT_EQ(session->event_count(), 2u);
  EXPECT_EQ(session->check_nesting(), "");
}

TEST(Trace, BufferCapDropsInsteadOfGrowing) {
  SessionGuard guard;
  const std::shared_ptr<TraceSession> session = TraceSession::start(8);
  for (int i = 0; i < 50; ++i) {
    const Span span("tick");
  }
  TraceSession::stop();
  EXPECT_EQ(session->event_count(), 8u);
  EXPECT_EQ(session->dropped(), 42u);
}

TEST(Trace, SessionOutlivesStopWhileSpansAreOpen) {
  // A span that straddles stop() is discarded: the session holds only
  // spans that opened and closed inside it, and its handle stays
  // readable after stop().
  std::shared_ptr<TraceSession> session = TraceSession::start();
  { const Span inside("inside"); }
  auto span = std::make_unique<Span>("straddles_stop");
  TraceSession::stop();
  EXPECT_FALSE(TraceSession::enabled());
  span.reset();  // closes after the session was closed
  const std::vector<TraceSession::Event> events = session->events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "inside");
}

TEST(Trace, SpanNeverLandsInALaterSession) {
  SessionGuard guard;
  const std::shared_ptr<TraceSession> first = TraceSession::start();
  auto span = std::make_unique<Span>("opened_in_first");
  const std::shared_ptr<TraceSession> second = TraceSession::start();
  { const Span own("opened_in_second"); }
  span.reset();  // its session was closed by the second start()
  TraceSession::stop();
  EXPECT_EQ(first->event_count(), 0u);
  const std::vector<TraceSession::Event> events = second->events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "opened_in_second");
}

TEST(Trace, MultiThreadedSpansKeepPerThreadNesting) {
  SessionGuard guard;
  const std::shared_ptr<TraceSession> session = TraceSession::start();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 50; ++i) {
        const Span outer("outer");
        const Span inner("inner");
      }
    });
  }
  for (std::thread& th : threads) th.join();
  TraceSession::stop();
  EXPECT_EQ(session->event_count(), 4u * 50u * 2u);
  EXPECT_EQ(session->check_nesting(), "");
  // All four worker threads got distinct ids.
  std::vector<std::uint32_t> tids;
  for (const TraceSession::Event& e : session->events()) {
    if (std::find(tids.begin(), tids.end(), e.tid) == tids.end()) {
      tids.push_back(e.tid);
    }
  }
  EXPECT_EQ(tids.size(), 4u);
}

TEST(Trace, ConcurrentRecordWhileStopping) {
  // TSan probe: writers race session start/stop. No assertion beyond
  // "no crash, no data race" — every recorded event landed in the
  // session that was open when its span opened and closed.
  for (int iter = 0; iter < 10; ++iter) {
    const std::shared_ptr<TraceSession> session = TraceSession::start(1 << 12);
    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (int t = 0; t < 3; ++t) {
      writers.emplace_back([&] {
        while (!stop.load(std::memory_order_acquire)) {
          const Span span("work");
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    TraceSession::stop();
    stop.store(true, std::memory_order_release);
    for (std::thread& w : writers) w.join();
  }
  SUCCEED();
}

}  // namespace
}  // namespace dsketch::obs
