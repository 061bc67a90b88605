// Deterministic, fast pseudo-random number generation.
//
// All randomized pieces of the library (hierarchy sampling, density nets,
// graph generators, workload samplers) take a seed and derive per-purpose
// streams via split(), so experiments are reproducible bit-for-bit across
// platforms and thread counts. xoshiro256** is used for generation and
// SplitMix64 for seeding, following the reference constructions by
// Blackman & Vigna. FNV-1a, the library's content hash, lives here too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string_view>

namespace dsketch {

/// SplitMix64 step; used to expand seeds and derive independent streams.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// FNV-1a 64 over `size` bytes, continued from `hash` (streaming: hash
/// pieces in order). Store checksums and repro cell ids both use it.
inline std::uint64_t fnv1a64(const void* data, std::size_t size,
                             std::uint64_t hash = 0xcbf29ce484222325ULL) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}
inline std::uint64_t fnv1a64(std::string_view text) {
  return fnv1a64(text.data(), text.size());
}

/// Stateless hash of (seed, salt, a, b) through the SplitMix64 finalizer.
/// It keys a per-event decision by stable identifiers (a half-edge and its
/// transmission count, a node and a round) instead of a draw from a shared
/// stream, so the decision needs no evaluation order: any lane may take it.
inline std::uint64_t keyed_hash(std::uint64_t seed, std::uint64_t salt,
                                std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
  z ^= a * 0xbf58476d1ce4e5b9ULL;
  z ^= b * 0x94d049bb133111ebULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// keyed_hash as a uniform double in [0, 1).
inline double keyed_uniform(std::uint64_t seed, std::uint64_t salt,
                            std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(keyed_hash(seed, salt, a, b) >> 11) * 0x1.0p-53;
}

/// xoshiro256** generator. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Derive an independent stream; `salt` distinguishes sibling streams.
  Rng split(std::uint64_t salt) {
    std::uint64_t s = (*this)() ^ (salt * 0x9e3779b97f4a7c15ULL);
    return Rng(splitmix64(s));
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) { return uniform() < p; }

  /// Uniform integer in [0, bound) via Lemire's method (bound > 0).
  std::uint64_t below(std::uint64_t bound) {
    // 128-bit multiply rejection-free enough for our purposes; use simple
    // rejection to keep exact uniformity.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      const std::uint64_t r = (*this)();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4];
};

}  // namespace dsketch
