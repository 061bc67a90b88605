// Per-round CONGEST telemetry sink (ROADMAP item 4 down payment).
//
// The simulator reports one RoundSample per executed round; RoundLog
// turns the stream into JSON lines in the harness schema (stable
// `experiment`/`table` keys) without letting a long run flood the
// artifact: samples are aggregated into windows whose stride doubles
// each time the per-phase line budget is reached, so the full trajectory
// is preserved (sums of messages/words, maxima of active/outbox) at
// logarithmically coarsening resolution — never truncated. Each window
// also carries the summed wall time of the simulator's step, splice and
// deliver phases (step_us / splice_us / deliver_us), which vary run to
// run; every other field is deterministic.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>

namespace dsketch::obs {

/// One executed simulator round, as deltas (messages/words transmitted
/// this round) plus instantaneous gauges, and the wall time of each of the
/// round's three phases.
struct RoundSample {
  std::uint64_t round = 0;         ///< round index just executed
  std::uint64_t messages = 0;      ///< messages shipped this round
  std::uint64_t words = 0;         ///< words shipped this round
  std::uint64_t active_nodes = 0;  ///< nodes stepped this round
  std::uint64_t max_outbox = 0;    ///< peak queue depth so far
  std::uint64_t dropped = 0;       ///< transmissions lost to fault injection
  std::uint64_t step_ns = 0;       ///< wall time stepping active nodes
  std::uint64_t splice_ns = 0;     ///< wall time splicing new sends
  std::uint64_t deliver_ns = 0;    ///< wall time delivering one hop
};

class RoundLog {
 public:
  struct Options {
    std::string experiment = "congest";
    std::string table = "congest_rounds";
    /// Line budget per phase before the window stride doubles.
    /// 0 means unlimited (one line per round).
    std::uint64_t max_lines_per_phase = 64;
  };

  explicit RoundLog(std::ostream& out);
  RoundLog(std::ostream& out, Options opts);

  /// Starts (or restarts) a phase: flushes any pending window and
  /// resets the stride. The simulator calls this with SimConfig::phase.
  void begin_phase(const std::string& phase);

  /// Accumulates one round into the current window; emits a line when
  /// the window reaches the current stride.
  void record(const RoundSample& s);

  /// Emits the pending partial window, if any (phase/run end).
  void flush();

  std::uint64_t lines_emitted() const { return total_lines_; }

 private:
  void emit_window();

  std::ostream& out_;
  Options opts_;
  std::string phase_ = "sim";
  std::uint64_t stride_ = 1;       // rounds per emitted line
  std::uint64_t phase_lines_ = 0;  // lines emitted this phase
  std::uint64_t total_lines_ = 0;
  // Current window accumulator.
  std::uint64_t win_rounds_ = 0;
  std::uint64_t win_first_round_ = 0;
  std::uint64_t win_last_round_ = 0;
  std::uint64_t win_messages_ = 0;
  std::uint64_t win_words_ = 0;
  std::uint64_t win_active_max_ = 0;
  std::uint64_t win_outbox_max_ = 0;
  std::uint64_t win_dropped_ = 0;
  std::uint64_t win_step_ns_ = 0;
  std::uint64_t win_splice_ns_ = 0;
  std::uint64_t win_deliver_ns_ = 0;
};

}  // namespace dsketch::obs
