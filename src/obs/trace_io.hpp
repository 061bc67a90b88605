// Minimal reader for the Chrome trace-event JSON this repo emits, plus
// a span-nesting validator.
//
// Not a general JSON library: it parses the full JSON grammar but only
// retains the event fields the tests and bench verifiers need
// (name/ph/tid/ts/dur/args.v). Used by obs_trace_test to round-trip
// TraceSession output and by bench_e14_dynamic to assert that spans
// recorded across hot-swaps nest properly per thread.
#pragma once

#include <cstdint>
#include <istream>
#include <string>
#include <vector>

namespace dsketch::obs {

struct ParsedEvent {
  std::string name;
  char ph = '?';
  std::uint32_t tid = 0;
  double ts_us = 0;
  double dur_us = 0;
  bool has_dur = false;
  double arg_value = 0;
  bool has_arg_value = false;
};

/// Parses `{"traceEvents":[...]}`. Throws std::runtime_error on
/// malformed JSON or a missing traceEvents array.
std::vector<ParsedEvent> parse_chrome_trace(std::istream& in);
std::vector<ParsedEvent> parse_chrome_trace(const std::string& text);

/// Checks that complete ('X') spans form a forest per thread: any two
/// spans on one tid are either disjoint or one contains the other.
/// Returns "" when well-formed, else a one-line description of the
/// first violation.
std::string check_span_nesting(const std::vector<ParsedEvent>& events);

}  // namespace dsketch::obs
