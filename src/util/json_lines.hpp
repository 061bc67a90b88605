// Machine-readable harness output: one JSON object per line.
//
// Used by the serving CLI, the experiment library (bench/), and the
// repro harness (src/exp). Perf-trajectory tooling ingests the JSON-lines
// artifacts, so keys should stay stable across PRs; add keys rather than
// renaming. The stable discriminators are `experiment` (e1..e12) and
// `table` (one rendered table per value) — see docs/BENCHMARKS.md for the
// per-experiment schema. (PR 2 migrated the pre-harness `bench` key to
// this scheme; that is the last rename.) Values are emitted in insertion
// order.
#pragma once

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>

namespace dsketch::bench {

class JsonLine {
 public:
  JsonLine& add(const std::string& key, const std::string& value) {
    return raw(key, "\"" + escape(value) + "\"");
  }
  JsonLine& add(const std::string& key, const char* value) {
    return add(key, std::string(value));
  }
  JsonLine& add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    return raw(key, buf);
  }
  JsonLine& add(const std::string& key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  JsonLine& add(const std::string& key, std::uint32_t value) {
    return raw(key, std::to_string(value));
  }
  JsonLine& add(const std::string& key, int value) {
    return raw(key, std::to_string(value));
  }
  JsonLine& add(const std::string& key, bool value) {
    return raw(key, value ? "true" : "false");
  }

  /// The serialized object, `{...}` (no trailing newline).
  std::string str() const { return "{" + body_ + "}"; }

  /// Prints `{...}\n` and flushes so lines survive interleaved crashes.
  void emit() {
    std::printf("{%s}\n", body_.c_str());
    std::fflush(stdout);
  }

  /// Writes `{...}\n` to an arbitrary sink (per-cell output files in the
  /// repro harness; std::cout in the standalone bench shims).
  void emit(std::ostream& out) { out << str() << '\n'; }

 private:
  JsonLine& raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + escape(key) + "\":" + value;
    return *this;
  }
  static std::string escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }
  std::string body_;
};

}  // namespace dsketch::bench
