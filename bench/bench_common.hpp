// Shared helpers for the experiment library (bench/bench_e*.cpp).
//
// Every experiment emits machine-readable JSON lines (util/json_lines.hpp)
// to a caller-supplied stream: one `row(...)` object per table row plus one
// trailing `note(...)` describing the shape the paper predicts. Markdown
// rendering lives in src/exp/report.cpp, which aggregates these lines into
// docs/RESULTS.md; the standalone bench shims just stream them to stdout.
#pragma once

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/graph_io.hpp"
#include "graph/shortest_paths.hpp"
#include "sketch/hierarchy.hpp"
#include "sketch/stretch_eval.hpp"
#include "util/flags.hpp"
#include "util/json_lines.hpp"
#include "util/timer.hpp"

namespace dsketch::bench {

/// Starts a table row stamped with the shared schema keys every harness
/// line carries: `experiment` (e1..e12) and `table` (groups rows into one
/// rendered table).
inline JsonLine row(const std::string& experiment, const std::string& table) {
  JsonLine line;
  line.add("experiment", experiment).add("table", table);
  return line;
}

/// Emits the experiment's expected-shape note (rendered as a blockquote
/// under the experiment's tables in docs/RESULTS.md).
inline void note(std::ostream& out, const std::string& experiment,
                 const std::string& text) {
  JsonLine line;
  line.add("experiment", experiment).add("note", text).emit(out);
}

/// Shorthand: evaluate an estimator over sampled ground truth.
inline StretchReport eval(const Graph& g, const SampledGroundTruth& gt,
                          const Estimator& est, double epsilon = 0.0) {
  EvalOptions opts;
  opts.epsilon = epsilon;
  return evaluate_stretch(g, gt, est, opts);
}

/// Largest n at which the benches compute diameters exactly; the exact
/// sweeps are source-parallel over the kernel now, but they are still
/// n full searches, so larger graphs fall back to sampled lower bounds.
inline constexpr NodeId kExactDiameterMaxN = 1024;

/// Hop diameter D: exact up to kExactDiameterMaxN, sampled beyond.
inline std::uint32_t hop_diameter_auto(const Graph& g, int samples,
                                       std::uint64_t seed) {
  if (g.num_nodes() <= kExactDiameterMaxN) return hop_diameter(g);
  return hop_diameter_estimate(g, samples, seed);
}

/// Shortest-path diameter S: exact up to kExactDiameterMaxN, sampled
/// beyond.
inline std::uint32_t sp_diameter_auto(const Graph& g, int samples,
                                      std::uint64_t seed) {
  if (g.num_nodes() <= kExactDiameterMaxN) return shortest_path_diameter(g);
  return shortest_path_diameter_estimate(g, samples, seed);
}

/// The experiment's primary graph: `--graph FILE` loads a corpus file
/// (how the repro runner shares one generated graph across cells);
/// otherwise an Erdős–Rényi instance at `--n` (default `def_n`) whose
/// edge probability preserves `def_p`'s average degree when n is scaled.
inline Graph primary_graph(const FlagSet& flags, NodeId def_n, double def_p,
                           WeightSpec weights, std::uint64_t seed) {
  if (flags.has("graph")) {
    return read_graph_file(flags.get("graph", std::string{}));
  }
  const auto n =
      static_cast<NodeId>(flags.get("n", static_cast<std::int64_t>(def_n)));
  const double p = flags.get("p", def_p * def_n / n);
  return erdos_renyi(n, p, weights, seed);
}

/// Mean per-node sketch size in words for any set exposing size_words(u).
template <typename SketchSet>
double mean_size_words(const SketchSet& set, NodeId n) {
  double words = 0;
  for (NodeId u = 0; u < n; ++u) {
    words += static_cast<double>(set.size_words(u));
  }
  return words / static_cast<double>(n);
}

/// Times `fn(u, v)` over all pairs (one warmup pass, one timed pass) and
/// returns mean ns per query; the checksum defeats dead-code elimination
/// without perturbing the loop.
template <typename Fn>
double time_ns_per_query(const std::vector<std::pair<NodeId, NodeId>>& pairs,
                         const Fn& fn) {
  Dist sink = 0;
  for (const auto& [u, v] : pairs) sink ^= fn(u, v);
  Timer timer;
  for (const auto& [u, v] : pairs) sink ^= fn(u, v);
  const double ns = timer.seconds() * 1e9;
  volatile Dist keep = sink;
  (void)keep;
  return ns / static_cast<double>(pairs.size());
}

}  // namespace dsketch::bench
