// E9 — §1: network coordinate systems (Vivaldi) "exhibit poor behavior in
// pathological instances", while the sketch guarantees hold on all graphs.
//
// Compares Vivaldi, landmarks, slack sketches, and TZ on a near-Euclidean
// geometric graph (friendly) vs a ring-with-chords and an expander
// (hostile embeddings). Reported distortion = max(est/d, d/est) since
// coordinates can underestimate.
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
      const double d = static_cast<double>(gt.dist(r, v));
      const double e = std::max<double>(1.0, static_cast<double>(est(s, v)));
      row.distortion.add(std::max(e / d, d / e));
      if (e < d) ++row.underestimates;
    }
  }
  return row;
}

void run_topology(const std::string& name, const Graph& g,
                  std::size_t sources, std::ostream& out) {
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
  for (auto& e : entries) {
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
}

}  // namespace

int run_e9(const FlagSet& flags, std::ostream& out) {
  const auto n = static_cast<NodeId>(flags.get("n", std::int64_t{512}));
  const auto sources =
      static_cast<std::size_t>(flags.get("sources", std::int64_t{12}));
  run_topology("geometric (friendly)", random_geometric(n, 0.08, 3, true),
               sources, out);
  run_topology("ring+chords (hostile)",
               ring_with_chords(n, n / 2, 32, 1, 3), sources, out);
  run_topology("expander nm (hostile)",
               random_graph_nm(n, 4 * static_cast<std::size_t>(n), {1, 2}, 3),
               sources, out);
  note(out, "e9",
       "Expected shape: Vivaldi competitive on the geometric graph but its "
       "p95/max blow up on hostile topologies (plus nonzero "
       "underestimates); TZ/slack max distortion stays within the proven "
       "bounds everywhere.");
  return 0;
}

}  // namespace dsketch::bench
