// Folklore landmark (beacon) sketches — the scheme Thorup–Zwick refines.
// Registered as oracle scheme "landmark".
//
// Pick L uniform random landmarks; every node stores its distance to each.
// The estimate min_l d(u,l) + d(l,v) never underestimates but has no
// worst-case stretch bound (a pair can be adjacent yet far from every
// landmark). Contrast with the ε-density-net slack sketch, which picks the
// same kind of table but sized to guarantee stretch 3 on ε-far pairs.
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

class LandmarkSketchSet final : public DistanceOracle {
 public:
  LandmarkSketchSet(const Graph& g, std::size_t num_landmarks,
                    std::uint64_t seed);

  Dist query(NodeId u, NodeId v) const override;
  NodeId num_nodes() const override { return n_; }
  std::size_t size_words(NodeId u) const override {
    (void)u;
    return 2 * landmarks_.size();
  }
  std::string scheme() const override { return "landmark"; }
  std::string guarantee() const override;
  /// Shared by the registrar and every instance (no parameter-dependent
  /// fields).
  static Capabilities static_capabilities();
  Capabilities capabilities() const override { return static_capabilities(); }

  const std::vector<NodeId>& landmarks() const { return landmarks_; }

  /// The text envelope, whose k slot records the landmark count (the
  /// scheme's size parameter), so --load validation can catch a
  /// contradicting --landmarks flag.
  void save(std::ostream& out) const override;
  static std::unique_ptr<LandmarkSketchSet> load_payload(
      std::istream& in, const OracleEnvelope& envelope);

 private:
  LandmarkSketchSet() = default;  // used by load_payload()
  NodeId n_ = 0;
  std::vector<NodeId> landmarks_;
  std::vector<std::vector<Dist>> dist_;  ///< [landmark index][node]
};

/// Registers scheme "landmark".
void register_landmark_oracle(OracleRegistry& reg);

}  // namespace dsketch
