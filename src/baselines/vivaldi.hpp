// Vivaldi network coordinates [DCKM04] — the paper's §1 foil.
// Registered as oracle scheme "vivaldi".
//
// Each node holds a point in R^dim; repeated spring-relaxation steps against
// measured RTTs pull the embedding toward the true distance matrix. We give
// the baseline ideal conditions: exact RTTs (true weighted distances,
// computed on demand) and as many sampled measurements as requested. Even
// so, graphs that do not embed into low-dimensional Euclidean space (ring
// with random chords, expanders) force large distortion — the "poor behavior
// in pathological instances" the paper attributes to coordinate systems,
// benchmarked in E9 against the sketch schemes whose guarantees hold on all
// graphs.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "core/oracle.hpp"
#include "graph/graph.hpp"

namespace dsketch {

class OracleRegistry;
struct OracleEnvelope;

struct VivaldiConfig {
  unsigned dim = 3;
  std::size_t rounds = 64;              ///< relaxation sweeps over all nodes
  std::size_t samples_per_round = 16;   ///< RTT probes per node per sweep
  double cc = 0.25;                     ///< adaptive timestep gain
  std::uint64_t seed = 11;
};

class VivaldiCoordinates final : public DistanceOracle {
 public:
  /// Runs the spring embedding against exact distances from `g`.
  VivaldiCoordinates(const Graph& g, const VivaldiConfig& config);

  /// Euclidean estimate; can under- or over-estimate (no guarantee).
  Dist query(NodeId u, NodeId v) const override;

  NodeId num_nodes() const override {
    return static_cast<NodeId>(coords_.size());
  }

  /// Words stored per node: one coordinate per dimension.
  std::size_t size_words(NodeId u) const override {
    (void)u;
    return dim_;
  }

  std::string scheme() const override { return "vivaldi"; }
  std::string guarantee() const override;
  /// Shared by the registrar and every instance (no parameter-dependent
  /// fields).
  static Capabilities static_capabilities();
  Capabilities capabilities() const override { return static_capabilities(); }

  const std::vector<double>& coordinate(NodeId u) const { return coords_[u]; }

  /// The text envelope, whose k slot records the embedding dimension, so
  /// --load validation can catch a contradicting --dim flag. Coordinates
  /// are written as bit-cast u64s so reloaded embeddings answer
  /// byte-identical queries (decimal text would round).
  void save(std::ostream& out) const override;
  static std::unique_ptr<VivaldiCoordinates> load_payload(
      std::istream& in, const OracleEnvelope& envelope);

 private:
  VivaldiCoordinates() = default;  // used by load_payload()
  unsigned dim_ = 0;
  std::vector<std::vector<double>> coords_;
};

/// Registers scheme "vivaldi".
void register_vivaldi_oracle(OracleRegistry& reg);

}  // namespace dsketch
