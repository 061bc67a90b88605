// The experiment library: every paper experiment E1–E12 as a callable,
// plus the systems experiments E13 (shortest-path kernel), E14 (live
// sketch refresh under churn), E15 (the CONGEST pipeline at scale) and E16
// (fault injection and recovery).
//
// Each `run_eN` reproduces one experiment grid from the paper (see
// docs/BENCHMARKS.md for what each measures and its flags), reads scale
// overrides from a FlagSet, and writes JSON lines (util/json_lines.hpp) to
// the supplied stream. Three callers share these entry points:
//
//   - the standalone bench binaries (bench_main.cpp shim, one per
//     experiment, streaming to stdout),
//   - `dsketch repro` (src/exp/runner.cpp, one output file per manifest
//     cell, cells running in parallel except those marked `alone`), and
//   - ad-hoc tooling that wants an experiment in-process.
//
// Functions are thread-safe with respect to each other: all state is
// local, and the output stream is caller-owned.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "util/flags.hpp"

namespace dsketch::bench {

/// Runs one experiment with `flags` overrides, emitting JSON lines to
/// `out`. Returns a process-style exit code (0 = success; nonzero means
/// the experiment's internal invariant check failed, e.g. E12's
/// store-vs-engine verification).
using ExperimentFn = int (*)(const FlagSet& flags, std::ostream& out);

/// Registry entry describing one experiment.
struct Experiment {
  std::string id;     ///< short id: "e1" .. "e16" (manifest key)
  std::string name;   ///< slug used in binary names, e.g. "tz_stretch"
  std::string title;  ///< one-line description for reports and --help
  ExperimentFn run;   ///< the entry point
  /// The experiment times itself (latency, overhead or scaling rows), so
  /// `dsketch repro` runs its cells after the others, one at a time.
  bool alone = false;
};

/// All experiments, ordered e1..e16.
const std::vector<Experiment>& experiment_registry();

/// Looks an experiment up by id ("e7") or name ("query"); nullptr if
/// unknown.
const Experiment* find_experiment(const std::string& id);

/// Shared main() body for the standalone bench shims: parses argv into a
/// FlagSet, runs the experiment against stdout, reports errors on stderr.
int experiment_main(const std::string& id, int argc, char** argv);

int run_e1(const FlagSet& flags, std::ostream& out);
int run_e2(const FlagSet& flags, std::ostream& out);
int run_e3(const FlagSet& flags, std::ostream& out);
int run_e4(const FlagSet& flags, std::ostream& out);
int run_e5(const FlagSet& flags, std::ostream& out);
int run_e6(const FlagSet& flags, std::ostream& out);
int run_e7(const FlagSet& flags, std::ostream& out);
int run_e8(const FlagSet& flags, std::ostream& out);
int run_e9(const FlagSet& flags, std::ostream& out);
int run_e10(const FlagSet& flags, std::ostream& out);
int run_e11(const FlagSet& flags, std::ostream& out);
int run_e12(const FlagSet& flags, std::ostream& out);
int run_e13(const FlagSet& flags, std::ostream& out);
int run_e14(const FlagSet& flags, std::ostream& out);
int run_e15(const FlagSet& flags, std::ostream& out);
int run_e16(const FlagSet& flags, std::ostream& out);

}  // namespace dsketch::bench
