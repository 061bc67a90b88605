#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "obs/trace_io.hpp"

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

TEST(Trace, SpansRoundTripThroughTheParser) {
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

  std::ostringstream json;
  session->write_chrome_trace(json);
  const std::vector<ParsedEvent> events = parse_chrome_trace(json.str());
  ASSERT_EQ(events.size(), 2u);

  const auto find = [&](const std::string& name) -> const ParsedEvent& {
    for (const ParsedEvent& e : events) {
      if (e.name == name) return e;
    }
    ADD_FAILURE() << "missing event " << name;
    return events.front();
  };
  const ParsedEvent& outer = find("outer");
  EXPECT_EQ(outer.ph, 'X');
  EXPECT_TRUE(outer.has_dur);
  EXPECT_TRUE(outer.has_arg_value);
  EXPECT_EQ(outer.arg_value, 7.0);
  const ParsedEvent& inner = find("inner");
  EXPECT_EQ(inner.ph, 'X');
  EXPECT_GE(inner.dur_us, 150.0);  // slept 200us inside
  // inner nests inside outer on the same thread.
  EXPECT_EQ(inner.tid, outer.tid);
  EXPECT_GE(inner.ts_us, outer.ts_us);
  EXPECT_LE(inner.ts_us + inner.dur_us, outer.ts_us + outer.dur_us + 0.002);
  EXPECT_FALSE(inner.has_arg_value);

  EXPECT_EQ(check_span_nesting(events), "");
}

TEST(Trace, NestingCheckerFlagsOverlap) {
  // Hand-built malformed trace: two spans on one tid that overlap
  // without containment. The checker must name the violation.
  std::vector<ParsedEvent> events(2);
  events[0] = {"a", 'X', 1, 0.0, 10.0, true, 0, false};
  events[1] = {"b", 'X', 1, 5.0, 10.0, true, 0, false};
  EXPECT_NE(check_span_nesting(events), "");
  // Same two spans on different threads: fine.
  events[1].tid = 2;
  EXPECT_EQ(check_span_nesting(events), "");
  // Proper containment on one tid: fine.
  events[1] = {"b", 'X', 1, 2.0, 3.0, true, 0, false};
  EXPECT_EQ(check_span_nesting(events), "");
}

TEST(Trace, ParserRejectsMalformedInput) {
  EXPECT_THROW(parse_chrome_trace(std::string("not json")),
               std::runtime_error);
  EXPECT_THROW(parse_chrome_trace(std::string("{\"noTraceEvents\":1}")),
               std::runtime_error);
  EXPECT_THROW(parse_chrome_trace(std::string("{\"traceEvents\":{}}")),
               std::runtime_error);
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
  EXPECT_EQ(session->event_count(), 1u);
  std::ostringstream json;
  session->write_chrome_trace(json);
  const std::vector<ParsedEvent> events = parse_chrome_trace(json.str());
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "inside");
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
  std::ostringstream json;
  second->write_chrome_trace(json);
  const std::vector<ParsedEvent> events = parse_chrome_trace(json.str());
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "opened_in_second");
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

  std::ostringstream json;
  session->write_chrome_trace(json);
  const std::vector<ParsedEvent> events = parse_chrome_trace(json.str());
  EXPECT_EQ(check_span_nesting(events), "");
  // All four worker threads got distinct ids.
  std::vector<std::uint32_t> tids;
  for (const ParsedEvent& e : events) {
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
