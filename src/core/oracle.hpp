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

/// What a concrete oracle can promise beyond guarantee(), which alone
/// states its stretch; drives scheme-agnostic consumers (the CLI listing,
/// eval's unreachable handling, the query service's cache keys) without
/// switching on concrete types.
struct Capabilities {
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
  /// query(); an oracle overrides it to hoist per-query setup out of the
  /// loop or, as SketchStore does, to prefetch the records of later
  /// pairs while earlier ones are answered.
  virtual void query_batch(std::span<const QueryPair> pairs,
                           std::span<Dist> out) const;

  /// Number of nodes covered (valid query ids are [0, n)).
  virtual NodeId num_nodes() const = 0;

  /// Storage at node u, in words (the paper's per-node size measure).
  virtual std::size_t size_words(NodeId u) const = 0;

  /// Mean per-node storage in words.
  double mean_size_words() const;

  /// Registry name of the scheme that built this oracle ("tz",
  /// "landmark", ...). Matches the scheme save() records.
  virtual std::string scheme() const = 0;

  /// Human-readable worst-case guarantee with parameters filled in
  /// ("stretch 5 (all pairs)", "exact (stretch 1)", ...).
  virtual std::string guarantee() const = 0;

  /// What this instance promises beyond guarantee().
  virtual Capabilities capabilities() const = 0;

  /// CONGEST construction cost, or nullptr when no simulated build is
  /// behind this instance (baselines, loaded and packed stores).
  virtual const SimStats* build_cost() const { return nullptr; }

  /// Persists the oracle so that OracleRegistry::load reconstructs it and
  /// the reloaded oracle answers byte-identical queries: SketchStore
  /// writes its store file, each baseline a scheme-tagged text envelope
  /// (header line + payload). The default throws before writing a byte,
  /// for oracles with no saved form (TzLabelOracle).
  virtual void save(std::ostream& out) const;
};

}  // namespace dsketch
