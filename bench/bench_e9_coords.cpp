// E9 — §1: network coordinate systems (Vivaldi) "exhibit poor behavior in
// pathological instances", while the sketch guarantees hold on all graphs.
//
// Compares Vivaldi, landmarks, slack sketches, and TZ on a near-Euclidean
// geometric graph (friendly) vs a ring-with-chords and an expander
// (hostile embeddings). Reported distortion = max(est/d, d/est) since
// coordinates can underestimate. Exits 1 when TZ or slack underestimates,
// or TZ's max distortion exceeds 2k-1.
//
// Flags: --n (512) scales every topology, --sources (12).
#include "baselines/landmark.hpp"
#include "baselines/vivaldi.hpp"
#include "bench_common.hpp"
#include "serve/sketch_store.hpp"

namespace dsketch::bench {

namespace {

struct DistortionRow {
  SampleSet distortion;
  std::size_t underestimates = 0;
};

DistortionRow measure(const Graph& g, const SampledGroundTruth& gt,
                      const Estimator& est) {
  DistortionRow row;
  for (std::size_t r = 0; r < gt.num_rows(); ++r) {
    const NodeId s = gt.sources()[r];
    for (NodeId v = 0; v < g.num_nodes(); v += 3) {
      if (v == s) continue;
      const Dist raw = est(s, v);
      const double d = static_cast<double>(gt.dist(r, v));
      // Distortion needs an estimate of at least 1; the underestimate
      // count reads the raw one, so a 0 at distance 1 still counts.
      const double e = std::max<double>(1.0, static_cast<double>(raw));
      row.distortion.add(std::max(e / d, d / e));
      if (raw < gt.dist(r, v)) ++row.underestimates;
    }
  }
  return row;
}

/// Emits one distortion row per scheme; returns the number of rows that
/// break a sketch guarantee.
int run_topology(const std::string& name, const Graph& g, std::size_t sources,
                 std::ostream& out) {
  const SampledGroundTruth gt(g, sources, 9);

  VivaldiConfig vc;
  vc.rounds = 48;
  const VivaldiCoordinates viv(g, vc);
  const LandmarkSketchSet lm(g, 32, 5);
  BuildConfig tz;
  tz.scheme = Scheme::kThorupZwick;
  tz.k = 3;
  const SketchStore tz_sketches(g, tz);
  BuildConfig slack;
  slack.scheme = Scheme::kSlack;
  slack.epsilon = 0.1;
  const SketchStore slack_sketches(g, slack);

  struct Entry {
    std::string scheme;
    DistortionRow row;
  };
  std::vector<Entry> entries;
  entries.push_back({"vivaldi_3d", measure(g, gt, [&](NodeId u, NodeId v) {
                       return viv.query(u, v);
                     })});
  entries.push_back({"landmarks_32", measure(g, gt, [&](NodeId u, NodeId v) {
                       return lm.query(u, v);
                     })});
  entries.push_back(
      {"slack_eps_0.1", measure(g, gt, [&](NodeId u, NodeId v) {
         return slack_sketches.query(u, v);
       })});
  entries.push_back({"tz_k3", measure(g, gt, [&](NodeId u, NodeId v) {
                       return tz_sketches.query(u, v);
                     })});
  int violations = 0;
  for (auto& e : entries) {
    const bool sketch = e.scheme == "tz_k3" || e.scheme == "slack_eps_0.1";
    if ((sketch && e.row.underestimates > 0) ||
        (e.scheme == "tz_k3" && e.row.distortion.max() > 2 * tz.k - 1)) {
      ++violations;
    }
    row("e9", "distortion")
        .add("topology", name)
        .add("n", static_cast<std::uint64_t>(g.num_nodes()))
        .add("scheme", e.scheme)
        .add("p50_distortion", e.row.distortion.p(50))
        .add("p95_distortion", e.row.distortion.p(95))
        .add("max_distortion", e.row.distortion.max())
        .add("underestimates",
             static_cast<std::uint64_t>(e.row.underestimates))
        .emit(out);
  }
  return violations;
}

}  // namespace

int run_e9(const FlagSet& flags, std::ostream& out) {
  const auto n = static_cast<NodeId>(flags.get("n", std::int64_t{512}));
  const auto sources =
      static_cast<std::size_t>(flags.get("sources", std::int64_t{12}));
  int violations =
      run_topology("geometric (friendly)", random_geometric(n, 0.08, 3, true),
                   sources, out);
  violations += run_topology("ring+chords (hostile)",
                             ring_with_chords(n, n / 2, 32, 1, 3), sources,
                             out);
  violations += run_topology(
      "expander nm (hostile)",
      random_graph_nm(n, 4 * static_cast<std::size_t>(n), {1, 2}, 3), sources,
      out);
  note(out, "e9",
       "Expected shape: the sketches keep their guarantees on every "
       "topology (checked: the run exits 1 when the tz_k3 or slack_eps_0.1 "
       "row has an underestimate, or tz_k3's max_distortion exceeds 2k-1 = "
       "5). Slack's max is not checked: its bound covers only epsilon-far "
       "pairs. Not checked, read at default flags: vivaldi_3d p95 2.0, "
       "2.3, 3.0 and max 24, 30, 5 (geometric, ring+chords, expander) "
       "with 867-1,241 underestimates per topology; landmarks_32 max 27, "
       "75, 5 with none; tz_k3 max 3.4-4.0; slack_eps_0.1 max 9.18 on the "
       "geometric graph, 1.06 and 3 elsewhere.");
  return violations == 0 ? 0 : 1;
}

}  // namespace dsketch::bench
