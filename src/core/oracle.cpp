#include "core/oracle.hpp"

#include <stdexcept>

#include "util/assert.hpp"

namespace dsketch {

void DistanceOracle::query_batch(std::span<const QueryPair> pairs,
                                 std::span<Dist> out) const {
  DS_CHECK(pairs.size() == out.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    out[i] = query(pairs[i].first, pairs[i].second);
  }
}

double DistanceOracle::mean_size_words() const {
  const NodeId n = num_nodes();
  if (n == 0) return 0.0;
  double total = 0;
  for (NodeId u = 0; u < n; ++u) {
    total += static_cast<double>(size_words(u));
  }
  return total / static_cast<double>(n);
}

void DistanceOracle::save(std::ostream&) const {
  throw std::runtime_error("oracle scheme '" + scheme() +
                           "' does not support save");
}

}  // namespace dsketch
