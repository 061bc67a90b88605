// Exact all-pairs oracle — the brute-force strawman of §1 (quadratic space,
// zero stretch) and the ground truth source for small-graph tests.
// Registered as oracle scheme "exact".
#pragma once

#include <iosfwd>
#include <memory>
#include <vector>

#include "core/oracle.hpp"
#include "graph/graph.hpp"

namespace dsketch {

class OracleRegistry;
struct OracleEnvelope;

class ExactOracle final : public DistanceOracle {
 public:
  explicit ExactOracle(const Graph& g);

  Dist query(NodeId u, NodeId v) const override { return dist_[u][v]; }
  const std::vector<Dist>& row(NodeId u) const { return dist_[u]; }

  NodeId num_nodes() const override {
    return static_cast<NodeId>(dist_.size());
  }

  /// Per-node storage in words: one distance per other node — the quadratic
  /// cost the sketches exist to avoid.
  std::size_t size_words(NodeId u) const override { return dist_[u].size(); }

  std::string scheme() const override { return "exact"; }
  std::string guarantee() const override { return "exact (stretch 1)"; }
  /// Parameter-free scheme: the registrar and every instance share one
  /// capabilities source.
  static Capabilities static_capabilities();
  Capabilities capabilities() const override { return static_capabilities(); }

  /// The text envelope: header line, then one row of distances per node.
  void save(std::ostream& out) const override;
  static std::unique_ptr<ExactOracle> load_payload(
      std::istream& in, const OracleEnvelope& envelope);

 private:
  ExactOracle() = default;  // used by load_payload()
  std::vector<std::vector<Dist>> dist_;
};

/// Registers scheme "exact".
void register_exact_oracle(OracleRegistry& reg);

}  // namespace dsketch
