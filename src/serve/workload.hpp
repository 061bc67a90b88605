/// \file
/// Query workload generation for the serving benchmarks.
///
/// Two shapes cover the serving-tier cases of interest: `uniform` draws
/// independent random pairs (worst case for any cache), and `zipf` draws
/// from a fixed universe of hot pairs with Zipf(s) popularity — the
/// heavy-traffic pattern that per-shard answer caches are built for (a
/// small head of pairs dominates the stream). The zipf universe holds
/// *distinct* non-self pairs: duplicate draws and u == u pairs are
/// rejected during sampling, so every rank maps to its own pair and the
/// realized popularity distribution is the configured Zipf (aliased ranks
/// used to silently merge their mass onto one pair).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "util/pair_key.hpp"
#include "util/rng.hpp"

namespace dsketch {

/// Shape and skew of a generated query stream.
struct WorkloadConfig {
  /// Stream shape.
  enum class Kind {
    kUniform,  ///< independent uniform pairs (cache worst case)
    kZipf      ///< Zipf-skewed draws from a fixed hot-pair universe
  };
  Kind kind = Kind::kUniform;    ///< which stream shape to generate
  std::size_t hot_pairs = 4096;  ///< zipf universe size (clamped to the
                                 ///< number of distinct non-self pairs)
  double zipf_s = 1.2;           ///< zipf exponent (higher = more skew)
  /// Flip each drawn pair to the opposite orientation with probability
  /// 1/2 — the symmetric-traffic pattern where u asks d(u,v) while v
  /// asks d(v,u). Exercises canonical cache keying.
  bool mirror = false;
  std::uint64_t seed = 7;        ///< stream seed (same seed = same stream)
};

/// Parses "uniform" | "zipf"; throws std::runtime_error otherwise.
inline WorkloadConfig::Kind parse_workload_kind(const std::string& name) {
  if (name == "uniform") return WorkloadConfig::Kind::kUniform;
  if (name == "zipf") return WorkloadConfig::Kind::kZipf;
  throw std::runtime_error("unknown workload (want uniform|zipf): " + name);
}

/// Deterministic (seeded) query-pair stream over node ids [0, n).
class WorkloadGenerator {
 public:
  /// A query: ordered (source, target) node pair.
  using Pair = std::pair<NodeId, NodeId>;

  /// Prepares the stream (for zipf: samples the hot universe and builds
  /// the popularity CDF).
  WorkloadGenerator(NodeId n, const WorkloadConfig& cfg)
      : n_(n), cfg_(cfg), rng_(cfg.seed) {
    if (cfg_.kind == WorkloadConfig::Kind::kZipf) {
      if (n_ < 2) {
        throw std::runtime_error("zipf workload needs at least 2 nodes");
      }
      // Distinct non-self ordered pairs only: rejection-sample until the
      // universe is full (deterministic in the seed). Clamp the request
      // to the pair-space size so tiny graphs terminate.
      const std::uint64_t pair_space =
          static_cast<std::uint64_t>(n_) * (n_ - 1);
      const std::size_t target = static_cast<std::size_t>(
          std::min<std::uint64_t>(cfg_.hot_pairs, pair_space));
      universe_.reserve(target);
      std::unordered_set<std::uint64_t> seen;
      seen.reserve(target);
      Rng pair_rng = rng_.split(1);
      while (universe_.size() < target) {
        const Pair p = random_pair(pair_rng);
        if (p.first == p.second) continue;
        if (!seen.insert(ordered_pair_key(p.first, p.second)).second) {
          continue;
        }
        universe_.push_back(p);
      }
      // Popularity CDF over ranks: P(r) proportional to 1/(r+1)^s.
      cdf_.reserve(universe_.size());
      double total = 0;
      for (std::size_t r = 0; r < universe_.size(); ++r) {
        total += 1.0 / std::pow(static_cast<double>(r + 1), cfg_.zipf_s);
        cdf_.push_back(total);
      }
      for (double& c : cdf_) c /= total;
    }
  }

  /// Draws the next pair of the stream.
  Pair next() {
    Pair p;
    if (cfg_.kind == WorkloadConfig::Kind::kUniform) {
      p = random_pair(rng_);
    } else {
      const double x = rng_.uniform();
      const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), x);
      const std::size_t rank =
          it == cdf_.end() ? cdf_.size() - 1
                           : static_cast<std::size_t>(it - cdf_.begin());
      p = universe_[rank];
    }
    if (cfg_.mirror && rng_.bernoulli(0.5)) std::swap(p.first, p.second);
    return p;
  }

  /// Draws `count` consecutive pairs.
  std::vector<Pair> batch(std::size_t count) {
    std::vector<Pair> pairs;
    pairs.reserve(count);
    for (std::size_t i = 0; i < count; ++i) pairs.push_back(next());
    return pairs;
  }

  /// The zipf hot-pair universe, hottest rank first (empty for uniform).
  const std::vector<Pair>& universe() const { return universe_; }

 private:
  Pair random_pair(Rng& rng) {
    return {static_cast<NodeId>(rng.below(n_)),
            static_cast<NodeId>(rng.below(n_))};
  }

  NodeId n_;
  WorkloadConfig cfg_;
  Rng rng_;
  std::vector<Pair> universe_;
  std::vector<double> cdf_;
};

}  // namespace dsketch
