// The four paper sketch families (tz / slack / cdg / graceful) as one
// DistanceOracle implementation.
//
// SketchOracle owns the built SketchPayload (core/sketch_payload) and
// implements the polymorphic query/size/save surface over it. The heap
// serving store (serve/sketch_store) holds the same payload type, so
// packing an oracle is a copy and both answer through the same query
// functions.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "congest/accounting.hpp"
#include "core/config.hpp"
#include "core/oracle.hpp"
#include "core/oracle_registry.hpp"
#include "core/sketch_payload.hpp"
#include "graph/graph.hpp"

namespace dsketch {

/// Maps the CLI/bench flag surface (--k, --epsilon, --seed, --echo,
/// --known-s, --async) onto a BuildConfig for the given scheme; used by
/// every registered sketch factory so all consumers parse flags once,
/// identically.
BuildConfig sketch_build_config(Scheme scheme, const FlagSet& flags);

/// Worst-case guarantee string for a sketch family with parameters
/// filled in — shared by the in-memory oracle and the packed store so
/// the two representations of one scheme can never disagree.
std::string sketch_guarantee(Scheme scheme, std::uint32_t k, double epsilon);

/// Capabilities of a sketch family with the stretch bound resolved from
/// k; shared by SketchOracle and SketchStore.
Capabilities sketch_capabilities(Scheme scheme, std::uint32_t k);

/// One built sketch set of any of the four families.
class SketchOracle final : public DistanceOracle {
 public:
  /// Runs the distributed construction for config.scheme on g.
  SketchOracle(const Graph& g, const BuildConfig& config);

  // DistanceOracle interface.
  Dist query(NodeId u, NodeId v) const override;
  NodeId num_nodes() const override { return n_; }
  std::size_t size_words(NodeId u) const override;
  std::string scheme() const override { return scheme_name(config_.scheme); }
  std::string guarantee() const override;
  Capabilities capabilities() const override;
  /// Construction cost; nullptr for loaded sketches — the cost was paid
  /// by whoever built and is not persisted in the envelope.
  const SimStats* build_cost() const override {
    return cost_available_ ? &cost_ : nullptr;
  }

  /// The parameters this sketch was built (or loaded) with.
  const BuildConfig& config() const { return config_; }
  /// Total CONGEST cost of construction; zero for loaded sketches (see
  /// build_cost() for the availability-aware accessor).
  const SimStats& cost() const { return cost_; }

  /// The built sketches — what SketchStore::from_oracle copies.
  const SketchPayload& payload() const { return payload_; }
  /// False only for sketches loaded from pre-epsilon envelopes, whose
  /// config().epsilon is a default rather than the recorded build value.
  bool epsilon_recorded() const { return epsilon_recorded_; }

  /// Reconstructs from an envelope payload (the registered loader).
  static std::unique_ptr<SketchOracle> load_payload(
      std::istream& in, const OracleEnvelope& envelope);

 protected:
  void save_payload(std::ostream& out) const override;
  std::uint32_t envelope_k() const override { return config_.k; }
  double envelope_epsilon() const override { return config_.epsilon; }

 private:
  SketchOracle() = default;  // used by load_payload()

  BuildConfig config_;
  bool epsilon_recorded_ = true;  ///< see epsilon_recorded()
  NodeId n_ = 0;
  SimStats cost_;
  bool cost_available_ = true;  ///< false for envelope-loaded sketches
  SketchPayload payload_;
};

/// Registers the four sketch families ("tz", "slack", "cdg", "graceful").
void register_sketch_oracles(OracleRegistry& reg);

}  // namespace dsketch
