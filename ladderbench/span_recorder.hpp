// Bench-local span recorder: where the ladder benchmark's time goes, seen
// from outside the library.
//
// Spans are opened around the benchmark's own calls into each layer
// (ingest, build, pack, save, a service batch ...),
// never inside the library, so the program's obs::TraceSession and its
// per-query spans stay switched off. Each span keeps an id, its parent's
// id and the id of the operation (batch or build) it belongs to.
// Spans live in memory and are written once, at exit, as Chrome
// trace-event JSON, which Perfetto (ui.perfetto.dev) and chrome://tracing
// open directly.
//
// One thread records. A disabled recorder costs one branch per span, and
// the benchmark only toggles it between operations, never inside an open
// span.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace ladder {

class SpanRecorder {
 public:
  struct Span {
    const char* name = "";
    std::uint32_t id = 0;      ///< 1-based; 0 means "no span"
    std::uint32_t parent = 0;  ///< 0 for a root span
    std::uint64_t op = 0;      ///< batch / build sequence number
    double start_us = 0;
    double end_us = 0;
  };

  /// Per-name totals: self time is a span's duration minus the part of it
  /// its direct children cover.
  struct SelfTime {
    std::uint64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };

  SpanRecorder() : epoch_(Clock::now()) {}

  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span under the innermost open one; returns 0 when disabled.
  /// `name` must outlive the recorder (string literals do).
  std::uint32_t open(const char* name, std::uint64_t op) {
    if (!enabled_) return 0;
    Span s;
    s.name = name;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = stack_.empty() ? 0 : stack_.back();
    s.op = op;
    s.start_us = now_us();
    spans_.push_back(s);
    stack_.push_back(s.id);
    return s.id;
  }

  /// Closes span `id` (a no-op for 0). Closing anything but the innermost
  /// open span marks the recording broken instead of throwing, because
  /// spans close from destructors.
  void close(std::uint32_t id) noexcept {
    if (id == 0) return;
    if (stack_.empty() || stack_.back() != id) {
      broken_ = true;
      return;
    }
    stack_.pop_back();
    spans_[id - 1].end_us = now_us();
  }

  /// Marks the recording broken (a span could not be recorded).
  void mark_broken() noexcept { broken_ = true; }

  /// True when every span closed in nesting order and none is still open.
  bool nesting_ok() const { return !broken_ && stack_.empty(); }

  std::size_t size() const { return spans_.size(); }

  std::map<std::string, SelfTime> self_times() const {
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent != 0) child_us[s.parent - 1] += s.end_us - s.start_us;
    }
    std::map<std::string, SelfTime> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const double dur = spans_[i].end_us - spans_[i].start_us;
      SelfTime& t = out[spans_[i].name];
      ++t.count;
      t.total_ms += dur / 1e3;
      t.self_ms += std::max(0.0, dur - child_us[i]) / 1e3;
    }
    return out;
  }

  /// Chrome trace-event JSON: one complete ("X") event per span.
  void write_chrome_trace(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace: " + path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[320];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                    "\"parent\":%u,\"op\":%llu}}",
                    i == 0 ? "" : ",", s.name, s.start_us,
                    s.end_us - s.start_us, s.id, s.parent,
                    static_cast<unsigned long long>(s.op));
      out << buf;
    }
    out << "\n]}\n";
    if (!out.flush()) throw std::runtime_error("cannot write trace: " + path);
  }

 private:
  using Clock = std::chrono::steady_clock;

  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  bool enabled_ = false;
  bool broken_ = false;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
  Clock::time_point epoch_;
};

/// RAII span that also measures its own wall time: the elapsed
/// milliseconds are appended to `*ms_out` (when given) on close, so one
/// scope both traces a layer call and feeds the metric built from it.
class Phase {
 public:
  Phase(SpanRecorder& rec, const char* name, std::uint64_t op,
        std::vector<double>* ms_out = nullptr)
      : rec_(rec), id_(rec.open(name, op)), ms_out_(ms_out),
        start_(std::chrono::steady_clock::now()) {}

  ~Phase() {
    if (ms_out_ != nullptr) {
      try {
        ms_out_->push_back(elapsed_ms());
      } catch (...) {
        rec_.mark_broken();
      }
    }
    rec_.close(id_);
  }

  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

 private:
  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

  SpanRecorder& rec_;
  std::uint32_t id_;
  std::vector<double>* ms_out_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace ladder
