#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <ostream>
#include <string>
#include <tuple>

namespace dsketch::obs {

namespace {

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Stable small id for the calling thread, assigned on first use
// process-wide (not per session, so long-lived pool threads keep theirs).
std::uint32_t thread_id() {
  static std::atomic<std::uint32_t> next{1};
  thread_local std::uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

// The process-wide recorder. Constant-initialized, so instrumented code
// in other translation units may record during static initialization.
struct Recorder {
  std::mutex mu;
  std::shared_ptr<TraceSession> open;  // guarded by mu
  std::uint64_t last_number = 0;       // guarded by mu
};
constinit Recorder recorder;

std::string json_escape(const char* s) {
  std::string out;
  for (; *s; ++s) {
    if (*s == '"' || *s == '\\') out += '\\';
    out += *s;
  }
  return out;
}

}  // namespace

std::atomic<std::uint64_t> TraceSession::open_session_{0};

TraceSession::TraceSession(std::size_t max_events)
    : max_events_(max_events), epoch_ns_(steady_ns()) {
  events_.reserve(max_events_ < 4096 ? max_events_ : 4096);
}

std::shared_ptr<TraceSession> TraceSession::start(std::size_t max_events) {
  auto session = std::make_shared<TraceSession>(max_events);
  std::lock_guard<std::mutex> lock(recorder.mu);
  recorder.open = session;
  open_session_.store(++recorder.last_number, std::memory_order_relaxed);
  return session;
}

std::shared_ptr<TraceSession> TraceSession::stop() {
  std::lock_guard<std::mutex> lock(recorder.mu);
  open_session_.store(0, std::memory_order_relaxed);
  return std::move(recorder.open);
}

std::size_t TraceSession::event_count() const {
  std::lock_guard<std::mutex> lock(recorder.mu);
  return events_.size();
}

std::uint64_t TraceSession::dropped() const {
  std::lock_guard<std::mutex> lock(recorder.mu);
  return dropped_;
}

std::vector<TraceSession::Event> TraceSession::events() const {
  std::lock_guard<std::mutex> lock(recorder.mu);
  return events_;
}

std::string TraceSession::check_nesting() const {
  std::vector<Event> spans = events();
  // By thread, then by start; at a start tie the longer span is the
  // parent and comes first.
  std::sort(spans.begin(), spans.end(), [](const Event& a, const Event& b) {
    return std::tie(a.tid, a.start_ns, b.dur_ns) <
           std::tie(b.tid, b.start_ns, a.dur_ns);
  });
  const auto end_ns = [](const Event& e) { return e.start_ns + e.dur_ns; };
  const auto describe = [&](const Event& e) {
    return "\"" + std::string(e.name) + "\" [" + std::to_string(e.start_ns) +
           ", " + std::to_string(end_ns(e)) + ") ns";
  };
  std::vector<const Event*> enclosing;  // innermost last
  for (const Event& s : spans) {
    if (!enclosing.empty() && enclosing.back()->tid != s.tid) {
      enclosing.clear();
    }
    while (!enclosing.empty() && end_ns(*enclosing.back()) <= s.start_ns) {
      enclosing.pop_back();
    }
    if (!enclosing.empty() && end_ns(s) > end_ns(*enclosing.back())) {
      return "tid " + std::to_string(s.tid) + ": span " + describe(s) +
             " crosses span " + describe(*enclosing.back());
    }
    enclosing.push_back(&s);
  }
  return "";
}

void TraceSession::write_chrome_trace(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(recorder.mu);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[64];
  bool first = true;
  for (const Event& ev : events_) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << json_escape(ev.name)
        << "\",\"cat\":\"dsketch\",\"ph\":\"X\",\"pid\":1,\"tid\":" << ev.tid;
    std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(ev.start_ns) / 1000.0,
                  static_cast<double>(ev.dur_ns) / 1000.0);
    out << buf;
    if (ev.has_value) out << ",\"args\":{\"v\":" << ev.value << "}";
    out << "}";
  }
  out << "]}\n";
}

void Span::open() {
  if (name_ == nullptr) {
    session_ = 0;  // a sampled call site skipped this one
    return;
  }
  start_ns_ = steady_ns();
}

void Span::close() {
  const std::uint64_t end = steady_ns();
  const std::uint32_t tid = thread_id();
  std::lock_guard<std::mutex> lock(recorder.mu);
  if (TraceSession::open_session_.load(std::memory_order_relaxed) !=
      session_) {
    return;  // the session this span opened under is closed
  }
  TraceSession& s = *recorder.open;
  if (s.events_.size() >= s.max_events_) {
    ++s.dropped_;
    return;
  }
  const std::uint64_t start =
      start_ns_ > s.epoch_ns_ ? start_ns_ - s.epoch_ns_ : 0;
  s.events_.push_back(TraceSession::Event{
      name_, start, end > start_ns_ ? end - start_ns_ : 0, value_, tid,
      has_value_});
}

}  // namespace dsketch::obs
