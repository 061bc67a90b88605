// Round/message/word accounting for simulator runs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace dsketch {

/// The counters of one simulator run, or of one phase of a merged run.
/// This is the one list: SimPhase and SimStats share it and its one fold,
/// so a new counter is one edit here.
struct SimCounters {
  std::uint64_t rounds = 0;        ///< synchronous rounds elapsed
  std::uint64_t messages = 0;      ///< messages transmitted over edges
  std::uint64_t words = 0;         ///< total words across those messages
  std::uint64_t node_steps = 0;    ///< on_round invocations (work measure)
  std::uint64_t max_outbox = 0;    ///< peak per-edge queue depth observed
  std::uint64_t dropped = 0;       ///< transmissions lost to fault injection
  std::uint64_t duplicated = 0;    ///< extra copies delivered by faults
  bool hit_round_limit = false;    ///< run stopped by max_rounds, not quiescence

  /// Merges another run: counts add, the peak is the larger one, and the
  /// round limit is hit when either hit it.
  void fold(const SimCounters& o) {
    rounds += o.rounds;
    messages += o.messages;
    words += o.words;
    node_steps += o.node_steps;
    if (o.max_outbox > max_outbox) max_outbox = o.max_outbox;
    dropped += o.dropped;
    duplicated += o.duplicated;
    hit_round_limit = hit_round_limit || o.hit_round_limit;
  }

  bool operator==(const SimCounters&) const = default;
};

/// One labeled constituent of a merged SimStats. Kept when stats are
/// summed so composite builds (BFS tree + main run, Voronoi + TZ +
/// dissemination, ...) can still report which phase cost what — and,
/// critically, which phase hit the round limit.
struct SimPhase : SimCounters {
  std::string label;
};

struct SimStats : SimCounters {
  /// Wall time spent in each phase of the simulator's executed rounds
  /// (step, splice, deliver). Host-dependent: not part of SimPhase and not
  /// compared by any determinism check.
  double step_seconds = 0;
  double splice_seconds = 0;
  double deliver_seconds = 0;

  /// Phase label of a single run (SimConfig::phase); empty when unset.
  std::string label;
  /// Per-phase breakdown accumulated by operator+=. Empty for a single
  /// un-merged run (use breakdown() for a uniform view).
  std::vector<SimPhase> phases;

  /// This stats object's own aggregate counters as one phase entry
  /// (ignores any nested phases).
  SimPhase as_phase() const {
    return SimPhase{{*this}, label.empty() ? "unlabeled" : label};
  }

  /// Uniform per-phase view: the recorded breakdown, or this run as a
  /// single phase.
  std::vector<SimPhase> breakdown() const {
    if (!phases.empty()) return phases;
    return {as_phase()};
  }

  /// Comma-joined labels of phases that stopped at the round limit
  /// ("" when none did) — the loud-warning payload for bench output.
  std::string limited_phases() const {
    std::string out;
    for (const SimPhase& p : breakdown()) {
      if (!p.hit_round_limit) continue;
      if (!out.empty()) out += ",";
      out += p.label;
    }
    return out;
  }

  /// True when nothing ran: merging such a stats object must not leave
  /// an all-zero "unlabeled" entry in the phase breakdown.
  bool empty() const {
    return static_cast<const SimCounters&>(*this) == SimCounters{} &&
           phases.empty();
  }

  SimStats& operator+=(const SimStats& o) {
    // Preserve the labeled breakdown before summing the aggregates.
    // (The copy also makes self-addition safe.)
    const std::vector<SimPhase> add = o.empty() ? std::vector<SimPhase>{}
                                                : o.breakdown();
    if (phases.empty() && !add.empty() && !empty()) {
      phases.push_back(as_phase());
    }
    // Coalesce by label so merging runs with differing phase sets (e.g.
    // per-topology sweeps, repeated builds) keeps one entry per phase
    // instead of accumulating duplicates. First appearance fixes a
    // label's position; later contributions fold into it.
    for (const SimPhase& p : add) {
      const auto mine = std::find_if(
          phases.begin(), phases.end(),
          [&p](const SimPhase& q) { return q.label == p.label; });
      if (mine == phases.end()) {
        phases.push_back(p);
      } else {
        mine->fold(p);
      }
    }
    fold(o);
    step_seconds += o.step_seconds;
    splice_seconds += o.splice_seconds;
    deliver_seconds += o.deliver_seconds;
    return *this;
  }
};

}  // namespace dsketch
