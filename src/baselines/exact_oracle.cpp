#include "baselines/exact_oracle.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "core/oracle_registry.hpp"
#include "graph/sp_kernel.hpp"
#include "util/thread_pool.hpp"

namespace dsketch {

ExactOracle::ExactOracle(const Graph& g) {
  // Full APSP table, one kernel SSSP per row in parallel.
  dist_.resize(g.num_nodes());
  global_pool().for_each_dynamic(g.num_nodes(),
                                 [&](std::size_t, std::size_t u) {
    SpWorkspace& ws = thread_workspace();
    sp_dijkstra(g, static_cast<NodeId>(u), ws);
    dist_[u] = ws.export_dist();
  });
}

Capabilities ExactOracle::static_capabilities() {
  // Undirected distances: symmetric.
  return {.supports_paths = true, .symmetric = true};
}

void ExactOracle::save(std::ostream& out) const {
  write_envelope_header(out, scheme(), num_nodes(), 0, 0.0);
  // One row per node; kInfDist round-trips as its literal u64 value.
  for (const std::vector<Dist>& row : dist_) write_payload_row(out, row);
}

std::unique_ptr<ExactOracle> ExactOracle::load_payload(
    std::istream& in, const OracleEnvelope& envelope) {
  auto oracle = std::unique_ptr<ExactOracle>(new ExactOracle());
  // Grow the table row by row as data actually arrives: a truncated file
  // or size-corrupted header fails after at most one row's allocation
  // instead of committing the full n^2 table up front.
  oracle->dist_.reserve(std::min<std::size_t>(envelope.n, 1 << 16));
  for (NodeId u = 0; u < envelope.n; ++u) {
    std::vector<Dist> row(envelope.n);
    for (NodeId v = 0; v < envelope.n; ++v) {
      if (!(in >> row[v])) {
        throw std::runtime_error("exact oracle payload truncated");
      }
    }
    oracle->dist_.push_back(std::move(row));
  }
  return oracle;
}

void register_exact_oracle(OracleRegistry& reg) {
  OracleScheme s;
  s.name = "exact";
  s.guarantee = "exact (stretch 1)";
  s.summary =
      "full APSP table (quadratic space, the strawman sketches beat); "
      "flags: none";
  s.caps = ExactOracle::static_capabilities();
  s.build = [](const Graph& g, const FlagSet&) {
    return std::unique_ptr<DistanceOracle>(new ExactOracle(g));
  };
  s.load = [](std::istream& in, const OracleEnvelope& envelope) {
    return std::unique_ptr<DistanceOracle>(
        ExactOracle::load_payload(in, envelope));
  };
  reg.add(std::move(s));
}

}  // namespace dsketch
