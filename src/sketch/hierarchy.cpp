#include "sketch/hierarchy.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace dsketch {

Hierarchy::Hierarchy(std::uint32_t k, std::vector<std::uint32_t> levels)
    : k_(k), levels_(std::move(levels)) {
  DS_CHECK(k_ >= 1);
  for (const std::uint32_t l : levels_) DS_CHECK(l <= k_);
}

Hierarchy Hierarchy::sample(NodeId n, std::uint32_t k, std::uint64_t seed) {
  DS_CHECK(k >= 1);
  if (n == 0) return Hierarchy(k, {});
  const double p =
      k == 1 ? 0.0 : std::pow(static_cast<double>(n), -1.0 / static_cast<double>(k));
  for (;; ++seed) {
    Rng rng(seed);
    std::vector<std::uint32_t> levels(n, 1);
    for (NodeId u = 0; u < n; ++u) {
      while (levels[u] < k && rng.bernoulli(p)) ++levels[u];
    }
    Hierarchy h(k, std::move(levels));
    if (h.top_level_nonempty()) return h;
  }
}

Hierarchy Hierarchy::sample_on_subset(NodeId n, std::uint32_t k,
                                      const std::vector<NodeId>& ground,
                                      double p, std::uint64_t seed) {
  DS_CHECK(n >= 1 && k >= 1);
  Rng rng(seed);
  std::vector<std::uint32_t> levels(n, 0);
  for (const NodeId u : ground) {
    DS_CHECK(u < n);
    levels[u] = 1;
    while (levels[u] < k && rng.bernoulli(p)) ++levels[u];
  }
  return Hierarchy(k, std::move(levels));
}

std::vector<NodeId> Hierarchy::level_members(std::uint32_t i) const {
  std::vector<NodeId> out;
  for (NodeId u = 0; u < n(); ++u) {
    if (in_level(u, i)) out.push_back(u);
  }
  return out;
}

std::vector<NodeId> Hierarchy::phase_sources(std::uint32_t i) const {
  std::vector<NodeId> out;
  for (NodeId u = 0; u < n(); ++u) {
    if (levels_[u] == i + 1) out.push_back(u);
  }
  return out;
}

bool Hierarchy::top_level_nonempty() const {
  for (const std::uint32_t l : levels_) {
    if (l == k_) return true;
  }
  return false;
}

}  // namespace dsketch
