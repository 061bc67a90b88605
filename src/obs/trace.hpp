// Chrome trace-event tracing: RAII spans, loadable in Perfetto /
// chrome://tracing.
//
// One process-wide recorder holds at most one open session, opened by
// TraceSession::start() and closed by stop(). Sessions are numbered. A
// Span keeps the number of the session open when it opened (0 = none: a
// disabled probe is one relaxed atomic load, with no allocation and no
// refcount, so instrumentation can live on the serve path). On close it
// appends one complete ('X') event under the recorder's single mutex, and
// only if that same session is still open: a span that outlives its
// session, across stop() or a later start(), is discarded. A session
// therefore holds only spans that opened and closed inside it, and its
// handle stays readable after stop().
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

namespace dsketch::obs {

class TraceSession {
 public:
  explicit TraceSession(std::size_t max_events);

  /// Opens a new session, closing any open one, and returns its handle.
  /// Events past `max_events` are dropped and counted.
  static std::shared_ptr<TraceSession> start(std::size_t max_events = 1 << 18);

  /// Closes the open session and returns its handle (nullptr if none).
  static std::shared_ptr<TraceSession> stop();

  static bool enabled() {
    return open_session_.load(std::memory_order_relaxed) != 0;
  }

  /// {"traceEvents":[...]} — the subset of the Chrome trace-event JSON
  /// format Perfetto ingests. Timestamps are microseconds (fractional)
  /// since the session started.
  void write_chrome_trace(std::ostream& out) const;

  std::size_t event_count() const;
  std::uint64_t dropped() const;

  /// One complete span. `name` has static storage duration
  /// (instrumentation passes literals), so events are fixed-size PODs.
  struct Event {
    const char* name;
    std::uint64_t start_ns;  ///< relative to session start
    std::uint64_t dur_ns;
    std::uint64_t value;     ///< span arg, when has_value
    std::uint32_t tid;       ///< small process-wide thread id
    bool has_value;
  };

  /// A copy of the session's spans, in the order they closed.
  std::vector<Event> events() const;

  /// "" when the spans form a forest on every thread, else a one-line
  /// description of the first two spans on one thread that overlap
  /// without one containing the other. Compares exact nanoseconds.
  std::string check_nesting() const;

 private:
  friend class Span;

  /// Number of the open session, 0 when none; written under the
  /// recorder's mutex.
  static std::atomic<std::uint64_t> open_session_;

  const std::size_t max_events_;
  const std::uint64_t epoch_ns_;  // steady_clock origin for this session
  std::vector<Event> events_;     // guarded by the recorder's mutex
  std::uint64_t dropped_ = 0;     // likewise
};

/// RAII scope producing one complete ('X') event on destruction, if the
/// session it opened under is still open then. With tracing disabled,
/// constructing one costs one relaxed load. A null `name` records
/// nothing: a sampled call site passes one for the calls it skips.
class Span {
 public:
  explicit Span(const char* name) : Span(name, 0, false) {}
  Span(const char* name, std::uint64_t value) : Span(name, value, true) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (session_ != 0) close();
  }

  /// Sets the span's arg, for a count known only when the span ends.
  void set_value(std::uint64_t value) {
    value_ = value;
    has_value_ = true;
  }

 private:
  Span(const char* name, std::uint64_t value, bool has_value)
      : session_(TraceSession::open_session_.load(std::memory_order_relaxed)),
        name_(name),
        value_(value),
        has_value_(has_value) {
    if (session_ != 0) open();
  }
  void open();
  void close();

  std::uint64_t session_;
  const char* name_;
  std::uint64_t value_;
  bool has_value_;
  std::uint64_t start_ns_ = 0;
};

}  // namespace dsketch::obs
