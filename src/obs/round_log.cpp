#include "obs/round_log.hpp"

#include <utility>

#include "util/json_lines.hpp"

namespace dsketch::obs {

RoundLog::RoundLog(std::ostream& out) : RoundLog(out, Options{}) {}

RoundLog::RoundLog(std::ostream& out, Options opts)
    : out_(out), opts_(std::move(opts)) {}

void RoundLog::begin_phase(const std::string& phase) {
  flush();
  phase_ = phase.empty() ? "sim" : phase;
  stride_ = 1;
  phase_lines_ = 0;
}

void RoundLog::record(const RoundSample& s) {
  if (win_rounds_ == 0) win_first_round_ = s.round;
  win_last_round_ = s.round;
  ++win_rounds_;
  win_messages_ += s.messages;
  win_words_ += s.words;
  win_dropped_ += s.dropped;
  win_step_ns_ += s.step_ns;
  win_splice_ns_ += s.splice_ns;
  win_deliver_ns_ += s.deliver_ns;
  if (s.active_nodes > win_active_max_) win_active_max_ = s.active_nodes;
  if (s.max_outbox > win_outbox_max_) win_outbox_max_ = s.max_outbox;
  if (win_rounds_ >= stride_) emit_window();
}

void RoundLog::flush() {
  if (win_rounds_ > 0) emit_window();
}

void RoundLog::emit_window() {
  bench::JsonLine line;
  line.add("experiment", opts_.experiment)
      .add("table", opts_.table)
      .add("phase", phase_)
      .add("round", win_first_round_)
      .add("round_end", win_last_round_)
      .add("rounds_in_window", win_rounds_)
      .add("messages", win_messages_)
      .add("words", win_words_)
      .add("active_nodes", win_active_max_)
      .add("max_outbox", win_outbox_max_)
      .add("dropped", win_dropped_)
      .add("step_us", static_cast<double>(win_step_ns_) * 1e-3)
      .add("splice_us", static_cast<double>(win_splice_ns_) * 1e-3)
      .add("deliver_us", static_cast<double>(win_deliver_ns_) * 1e-3);
  line.emit(out_);
  ++phase_lines_;
  ++total_lines_;
  win_rounds_ = 0;
  win_messages_ = 0;
  win_words_ = 0;
  win_dropped_ = 0;
  win_step_ns_ = 0;
  win_splice_ns_ = 0;
  win_deliver_ns_ = 0;
  win_active_max_ = 0;
  win_outbox_max_ = 0;
  // Budget reached: coarsen future windows so a phase of any length
  // fits in O(budget · log rounds) lines.
  if (opts_.max_lines_per_phase != 0 &&
      phase_lines_ >= opts_.max_lines_per_phase) {
    stride_ *= 2;
    phase_lines_ = 0;
  }
}

}  // namespace dsketch::obs
