// The one polymorphic query API every distance estimator implements.
//
// The paper's central object is a per-node sketch queried pairwise.
// DistanceOracle is the one query surface around it: anything that can
// answer "how far is u from v" — a sketch set of the four families
// (serve/sketch_store: built, loaded into one heap buffer, or mapped), a
// landmark table, the exact APSP matrix, Vivaldi coordinates — exposes the
// same interface, so experiments, the CLI, and the query service are
// scheme-agnostic.
//
//   const OracleScheme& s = OracleRegistry::instance().at("tz");
//   std::unique_ptr<DistanceOracle> oracle = s.build(g, flags);
//   Dist estimate = oracle->query(3, 997);
//   oracle->query_batch(pairs, answers);   // the serving hot path
//   oracle->guarantee();                   // "stretch 5 (all pairs)"
//
// See core/oracle_registry.hpp for name-based resolution and save/load.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <utility>

#include "graph/graph.hpp"

namespace dsketch {

struct SimStats;

/// A pairwise distance query: ordered (source, target). Order matters —
/// some estimators (TZ's pivot walk) are orientation-dependent, and both
/// answers are valid under the same guarantee.
using QueryPair = std::pair<NodeId, NodeId>;

/// What a concrete oracle can promise and do; drives scheme-agnostic
/// consumers (the CLI listing, eval's unreachable handling, the query
/// service's cache keys) without switching on concrete types.
struct Capabilities {
  /// Answers are true distances (stretch exactly 1).
  bool exact = false;
  /// Worst-case multiplicative stretch bound; 0 when none exists (the
  /// landmark and coordinate baselines) or when it is not a constant
  /// (graceful's O(log n)) — guarantee() always has the precise story.
  double stretch_bound = 0.0;
  /// The stretch bound only covers ε-far pairs (the §4 slack schemes).
  bool slack_only = false;
  /// Estimates are witnessed by real paths: never below the true
  /// distance, and kInfDist reliably means "no path found". False for
  /// embeddings (Vivaldi) which can under- or over-estimate arbitrarily.
  bool supports_paths = false;
  /// query(u, v) == query(v, u) bit-for-bit, always. True for schemes
  /// whose estimate is an orientation-free formula (the exact matrix,
  /// landmark triangulation, coordinate embeddings, slack net minima);
  /// false for the TZ-style pivot walk, which probes the two
  /// orientations in a fixed order and may settle on different (both
  /// valid) estimates. The query service keys its cache canonically
  /// only when this is set.
  bool symmetric = false;
  /// save() round-trips through OracleRegistry::load.
  bool supports_save = false;
  /// build_cost() reports the CONGEST construction cost (the distributed
  /// sketch schemes; centralized baselines have no simulated cost).
  bool build_cost_available = false;
};

/// Abstract pairwise distance estimator. Implementations must make
/// query()/query_batch() safe for concurrent callers (pure reads of the
/// built structure) — the query service and the parallel evaluator rely
/// on it.
class DistanceOracle {
 public:
  virtual ~DistanceOracle() = default;

  /// Distance estimate for (u, v) from the stored structure only.
  virtual Dist query(NodeId u, NodeId v) const = 0;

  /// Batched queries: out[i] = query(pairs[i]). out.size() must equal
  /// pairs.size(). The default implementation is a plain loop over
  /// query() — already the right thing for packed, allocation-free
  /// representations; oracles with per-query setup can override to hoist
  /// it out of the loop.
  virtual void query_batch(std::span<const QueryPair> pairs,
                           std::span<Dist> out) const;

  /// Number of nodes covered (valid query ids are [0, n)).
  virtual NodeId num_nodes() const = 0;

  /// Storage at node u, in words (the paper's per-node size measure).
  virtual std::size_t size_words(NodeId u) const = 0;

  /// Mean per-node storage in words.
  virtual double mean_size_words() const;

  /// Registry name of the scheme that built this oracle ("tz",
  /// "landmark", ...). Matches the scheme save() records.
  virtual std::string scheme() const = 0;

  /// Human-readable worst-case guarantee with parameters filled in
  /// ("stretch 5 (all pairs)", "exact (stretch 1)", ...).
  virtual std::string guarantee() const = 0;

  /// What this instance promises; parameter-dependent fields (TZ's 2k-1)
  /// are resolved with the build values.
  virtual Capabilities capabilities() const = 0;

  /// CONGEST construction cost, or nullptr when
  /// !capabilities().build_cost_available.
  virtual const SimStats* build_cost() const { return nullptr; }

  /// Persists the oracle so that OracleRegistry::load reconstructs it and
  /// the reloaded oracle answers byte-identical queries. The default
  /// writes a scheme-tagged text envelope (header line + save_payload),
  /// which the baselines use; SketchStore overrides it to write its v4
  /// file. Throws when !capabilities().supports_save.
  virtual void save(std::ostream& out) const;

 protected:
  /// Serialization hook of the text envelope: writes the scheme payload
  /// that the registered loader reads back. Default throws "save
  /// unsupported".
  virtual void save_payload(std::ostream& out) const;

  /// Envelope header fields; schemes without the parameter write 0.
  virtual std::uint32_t envelope_k() const { return 0; }
  virtual double envelope_epsilon() const { return 0.0; }
};

}  // namespace dsketch
