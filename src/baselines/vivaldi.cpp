#include "baselines/vivaldi.hpp"

#include <cmath>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "core/oracle_registry.hpp"
#include "graph/shortest_paths.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace dsketch {
namespace {

double norm(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return std::sqrt(s);
}

}  // namespace

VivaldiCoordinates::VivaldiCoordinates(const Graph& g,
                                       const VivaldiConfig& config)
    : dim_(config.dim) {
  const NodeId n = g.num_nodes();
  DS_CHECK(n >= 2 && dim_ >= 1);
  Rng rng(config.seed);
  coords_.assign(n, std::vector<double>(dim_, 0.0));
  for (auto& c : coords_) {
    for (double& x : c) x = rng.uniform() - 0.5;
  }
  std::vector<double> error(n, 1.0);

  // RTT oracle: cache Dijkstra rows for the nodes we probe from.
  std::vector<std::vector<Dist>> row_cache(n);
  auto rtt = [&](NodeId u, NodeId v) -> double {
    if (row_cache[u].empty() && row_cache[v].empty()) {
      row_cache[u] = dijkstra(g, u);
    }
    const auto& row = row_cache[u].empty() ? row_cache[v] : row_cache[u];
    const NodeId other = row_cache[u].empty() ? u : v;
    return static_cast<double>(row[other]);
  };

  for (std::size_t round = 0; round < config.rounds; ++round) {
    for (NodeId u = 0; u < n; ++u) {
      for (std::size_t s = 0; s < config.samples_per_round; ++s) {
        NodeId v = static_cast<NodeId>(rng.below(n));
        if (v == u) v = (v + 1) % n;
        const double measured = rtt(u, v);
        const double predicted = norm(coords_[u], coords_[v]);
        // Adaptive timestep weighted by relative confidence [DCKM04 §3.3].
        const double w = error[u] / (error[u] + error[v] + 1e-12);
        const double rel_err =
            std::abs(predicted - measured) / std::max(measured, 1e-9);
        const double ce = 0.25;
        error[u] = rel_err * ce * w + error[u] * (1.0 - ce * w);
        const double delta = config.cc * w;
        // Unit vector from v to u (random direction when coincident).
        std::vector<double> dir(dim_);
        double len = 0.0;
        for (unsigned i = 0; i < dim_; ++i) {
          dir[i] = coords_[u][i] - coords_[v][i];
          len += dir[i] * dir[i];
        }
        len = std::sqrt(len);
        if (len < 1e-12) {
          for (double& x : dir) x = rng.uniform() - 0.5;
          len = 0.0;
          for (const double x : dir) len += x * x;
          len = std::sqrt(std::max(len, 1e-12));
        }
        const double force = measured - predicted;
        for (unsigned i = 0; i < dim_; ++i) {
          coords_[u][i] += delta * force * (dir[i] / len);
        }
      }
    }
  }
}

Dist VivaldiCoordinates::query(NodeId u, NodeId v) const {
  if (u == v) return 0;
  const double d = norm(coords_[u], coords_[v]);
  // Disconnected probe targets feed kInfDist-sized RTTs into the springs
  // and can fling coordinates beyond the integer range; clamp before
  // rounding (llround on such doubles is undefined behaviour).
  if (!(d < 9.0e18)) return kInfDist;
  return static_cast<Dist>(std::llround(std::max(d, 0.0)));
}

std::string VivaldiCoordinates::guarantee() const {
  return "no guarantee (may underestimate); dim=" + std::to_string(dim_);
}

Capabilities VivaldiCoordinates::static_capabilities() {
  // Estimates come from an embedding, not witnessed paths: they can
  // undercut the true distance and never report unreachability. The norm
  // of the coordinate difference is symmetric.
  return {.supports_paths = false, .symmetric = true};
}

void VivaldiCoordinates::save(std::ostream& out) const {
  write_envelope_header(out, scheme(), num_nodes(), dim_, 0.0);
  out << dim_ << "\n";
  std::vector<std::uint64_t> bits_row(dim_);
  for (const std::vector<double>& c : coords_) {
    for (unsigned i = 0; i < dim_; ++i) {
      std::memcpy(&bits_row[i], &c[i], sizeof(bits_row[i]));
    }
    write_payload_row(out, bits_row);
  }
}

std::unique_ptr<VivaldiCoordinates> VivaldiCoordinates::load_payload(
    std::istream& in, const OracleEnvelope& envelope) {
  auto oracle = std::unique_ptr<VivaldiCoordinates>(new VivaldiCoordinates());
  unsigned dim = 0;
  // Embedding dimensions are single digits in practice; a huge value is
  // corruption, not a workload — reject before allocating n*dim doubles.
  if (!(in >> dim) || dim == 0 || dim > 4096) {
    throw std::runtime_error("vivaldi payload: bad dimension");
  }
  oracle->dim_ = dim;
  // Grow row by row (see ExactOracle::load_payload): truncation fails
  // after at most one row's allocation.
  for (NodeId u = 0; u < envelope.n; ++u) {
    std::vector<double> c(dim);
    for (double& x : c) {
      std::uint64_t bits;
      if (!(in >> bits)) {
        throw std::runtime_error("vivaldi payload: coordinates truncated");
      }
      std::memcpy(&x, &bits, sizeof(x));
    }
    oracle->coords_.push_back(std::move(c));
  }
  return oracle;
}

void register_vivaldi_oracle(OracleRegistry& reg) {
  OracleScheme s;
  s.name = "vivaldi";
  s.guarantee = "no guarantee (may underestimate)";
  s.summary =
      "Vivaldi spring-embedding coordinates [DCKM04]; flags: --dim (3) "
      "--rounds (64) --samples (16) --seed";
  s.caps = VivaldiCoordinates::static_capabilities();
  s.k_flag = "dim";
  s.build = [](const Graph& g, const FlagSet& flags) {
    VivaldiConfig cfg;
    cfg.dim = static_cast<unsigned>(flags.get("dim", std::int64_t{3}));
    cfg.rounds =
        static_cast<std::size_t>(flags.get("rounds", std::int64_t{64}));
    cfg.samples_per_round =
        static_cast<std::size_t>(flags.get("samples", std::int64_t{16}));
    cfg.cc = flags.get("cc", 0.25);
    cfg.seed = static_cast<std::uint64_t>(flags.get("seed", std::int64_t{11}));
    return std::unique_ptr<DistanceOracle>(new VivaldiCoordinates(g, cfg));
  };
  s.load = [](std::istream& in, const OracleEnvelope& envelope) {
    return std::unique_ptr<DistanceOracle>(
        VivaldiCoordinates::load_payload(in, envelope));
  };
  reg.add(std::move(s));
}

}  // namespace dsketch
