#include "baselines/landmark.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "core/oracle_registry.hpp"
#include "graph/sp_kernel.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace dsketch {

LandmarkSketchSet::LandmarkSketchSet(const Graph& g, std::size_t num_landmarks,
                                     std::uint64_t seed)
    : n_(g.num_nodes()) {
  const NodeId n = g.num_nodes();
  DS_CHECK(n >= 1 && num_landmarks >= 1);
  num_landmarks = std::min<std::size_t>(num_landmarks, n);
  Rng rng(seed);
  std::vector<NodeId> perm(n);
  for (NodeId i = 0; i < n; ++i) perm[i] = i;
  for (std::size_t i = 0; i < num_landmarks; ++i) {
    const std::size_t j = i + rng.below(n - i);
    std::swap(perm[i], perm[j]);
    landmarks_.push_back(perm[i]);
  }
  dist_.resize(num_landmarks);
  // One SSSP row per landmark, in parallel over the kernel.
  global_pool().for_each_dynamic(num_landmarks,
                                 [&](std::size_t, std::size_t i) {
    SpWorkspace& ws = thread_workspace();
    sp_dijkstra(g, landmarks_[i], ws);
    dist_[i] = ws.export_dist();
  });
}

Dist LandmarkSketchSet::query(NodeId u, NodeId v) const {
  if (u == v) return 0;
  Dist best = kInfDist;
  for (const auto& row : dist_) {
    if (row[u] == kInfDist || row[v] == kInfDist) continue;
    best = std::min(best, row[u] + row[v]);
  }
  return best;
}

std::string LandmarkSketchSet::guarantee() const {
  return "no worst-case bound (" + std::to_string(landmarks_.size()) +
         " landmarks, never underestimates)";
}

Capabilities LandmarkSketchSet::static_capabilities() {
  // Estimates are real u->l->v path lengths, min over landmarks of
  // d(u,l) + d(l,v): witnessed and symmetric.
  return {.supports_paths = true, .symmetric = true};
}

void LandmarkSketchSet::save(std::ostream& out) const {
  write_envelope_header(out, scheme(), n_,
                        static_cast<std::uint32_t>(landmarks_.size()), 0.0);
  out << landmarks_.size() << "\n";
  write_payload_row(out, landmarks_);
  for (const std::vector<Dist>& row : dist_) write_payload_row(out, row);
}

std::unique_ptr<LandmarkSketchSet> LandmarkSketchSet::load_payload(
    std::istream& in, const OracleEnvelope& envelope) {
  auto oracle = std::unique_ptr<LandmarkSketchSet>(new LandmarkSketchSet());
  oracle->n_ = envelope.n;
  std::size_t count = 0;
  // The constructor clamps the landmark count to n, so anything larger
  // is corruption; reject before sizing allocations from it.
  if (!(in >> count) || count == 0 || count > envelope.n) {
    throw std::runtime_error("landmark payload: bad landmark count");
  }
  oracle->landmarks_.resize(count);
  for (NodeId& l : oracle->landmarks_) {
    if (!(in >> l)) {
      throw std::runtime_error("landmark payload: landmark list truncated");
    }
  }
  // Grow row by row (see ExactOracle::load_payload): truncation fails
  // after at most one row's allocation.
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<Dist> row(envelope.n);
    for (Dist& d : row) {
      if (!(in >> d)) {
        throw std::runtime_error("landmark payload: distance rows truncated");
      }
    }
    oracle->dist_.push_back(std::move(row));
  }
  return oracle;
}

void register_landmark_oracle(OracleRegistry& reg) {
  OracleScheme s;
  s.name = "landmark";
  s.guarantee = "no worst-case bound (never underestimates)";
  s.summary =
      "folklore landmark tables, min_l d(u,l)+d(l,v); flags: --landmarks "
      "(16) --seed";
  s.caps = LandmarkSketchSet::static_capabilities();
  s.k_flag = "landmarks";
  s.build = [](const Graph& g, const FlagSet& flags) {
    const auto landmarks = static_cast<std::size_t>(
        flags.get("landmarks", std::int64_t{16}));
    const auto seed =
        static_cast<std::uint64_t>(flags.get("seed", std::int64_t{1}));
    return std::unique_ptr<DistanceOracle>(
        new LandmarkSketchSet(g, landmarks, seed));
  };
  s.load = [](std::istream& in, const OracleEnvelope& envelope) {
    return std::unique_ptr<DistanceOracle>(
        LandmarkSketchSet::load_payload(in, envelope));
  };
  reg.add(std::move(s));
}

}  // namespace dsketch
