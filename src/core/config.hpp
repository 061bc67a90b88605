// What to build: the sketch family and its parameters, as the registry
// entries, SketchStore's build constructor and build_sketch_payload take
// them.
#pragma once

#include <cstdint>

#include "congest/sim.hpp"
#include "sketch/tz_distributed.hpp"

namespace dsketch {

/// Which sketch family to construct.
enum class Scheme {
  kThorupZwick,  ///< Theorem 1.1: stretch 2k-1, all pairs
  kSlack,        ///< Theorem 4.3: stretch 3 on ε-far pairs
  kCdg,          ///< Theorem 4.6: stretch 8k-1 on ε-far pairs
  kGraceful,     ///< Theorem 1.3: O(log n) worst / O(1) average stretch
};

/// Stable external name, as used by the CLI flags, the text format
/// header, and machine-readable bench output.
inline const char* scheme_name(Scheme s) {
  switch (s) {
    case Scheme::kThorupZwick: return "tz";
    case Scheme::kSlack: return "slack";
    case Scheme::kCdg: return "cdg";
    case Scheme::kGraceful: return "graceful";
  }
  return "?";
}

struct BuildConfig {
  Scheme scheme = Scheme::kThorupZwick;
  std::uint32_t k = 3;        ///< TZ / CDG level count
  double epsilon = 0.1;       ///< slack parameter (kSlack / kCdg)
  std::uint64_t seed = 1;
  TerminationMode termination = TerminationMode::kOracle;
  SimConfig sim;              ///< CONGEST model knobs
};

}  // namespace dsketch
