// Sampling hierarchy A_0 ⊇ A_1 ⊇ … ⊇ A_{k-1} (A_k = ∅) of §3.1.
//
// For the plain Thorup–Zwick construction the ground set is V and the
// per-level survival probability is n^{-1/k}. For the (ε,k)-CDG sketches the
// ground set is a density net N and the probability is (10/ε · ln n)^{-1/k}
// (§4, Lemma 4.5). Both distributed and centralized constructions consume
// the *same* Hierarchy object, which is what lets the equivalence tests
// compare their outputs exactly. In a deployment each node flips its own
// coins; sharing the coin flips here is only a refactoring of where the
// randomness lives, not extra knowledge — no node ever reads another node's
// level.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace dsketch {

class Hierarchy {
 public:
  /// levels[u] = number of sets containing u; 0 means u is not even in A_0
  /// (possible only for net-restricted hierarchies).
  Hierarchy(std::uint32_t k, std::vector<std::uint32_t> levels);

  /// Standard TZ hierarchy over all of V with probability n^{-1/k},
  /// re-drawn with seed+1, seed+2, ... until A_{k-1} is nonempty (the
  /// stretch guarantee needs a top-level pivot). n == 0 gives the empty
  /// hierarchy.
  static Hierarchy sample(NodeId n, std::uint32_t k, std::uint64_t seed);

  /// Hierarchy over a ground subset (the density net): members of `ground`
  /// are in A_0; survival probability `p` per level.
  static Hierarchy sample_on_subset(NodeId n, std::uint32_t k,
                                    const std::vector<NodeId>& ground,
                                    double p, std::uint64_t seed);

  std::uint32_t k() const { return k_; }
  NodeId n() const { return static_cast<NodeId>(levels_.size()); }

  /// u in A_i ?
  bool in_level(NodeId u, std::uint32_t i) const { return levels_[u] > i; }
  std::uint32_t level_of(NodeId u) const { return levels_[u]; }

  /// Members of A_i (ascending ids).
  std::vector<NodeId> level_members(std::uint32_t i) const;

  /// Nodes with A_i membership but not A_{i+1} — the phase-i sources.
  std::vector<NodeId> phase_sources(std::uint32_t i) const;

  /// True when the top level A_{k-1} is nonempty (required for the
  /// stretch guarantee; sample() guarantees it, sample_on_subset() does
  /// not).
  bool top_level_nonempty() const;

 private:
  std::uint32_t k_;
  std::vector<std::uint32_t> levels_;
};

}  // namespace dsketch
