#include "sketch/slack_sketch.hpp"

#include <algorithm>
#include <bit>

#include "congest/bellman_ford.hpp"
#include "sketch/density_net.hpp"
#include "util/assert.hpp"

namespace dsketch {

SlackRow::SlackRow(const std::uint8_t* rec, std::size_t size,
                   std::size_t net_size) {
  if (size == 0 || rec[0] > 64 ||
      1 + packed_bytes(net_size, rec[0]) > size) {
    return;
  }
  bits_ = rec + 1;
  width_ = rec[0];
  mask_ = low_mask(width_);
  size_ = net_size;
}

bool SlackRow::valid(const std::uint8_t* rec, std::size_t size,
                     std::size_t net_size) {
  return size > 0 && rec[0] <= 64 &&
         1 + packed_bytes(net_size, rec[0]) == size;
}

Dist slack_query(const SlackRow& u, const SlackRow& v) {
  // No branch per net node: an all-ones field (unreachable) just cannot
  // win the minimum.
  Dist best = kInfDist;
  std::uint64_t pu = 0;
  std::uint64_t pv = 0;
  for (std::size_t i = 0; i < std::min(u.size_, v.size_); ++i) {
    const std::uint64_t du = read_bits(u.bits_, pu, u.width_, u.mask_);
    const std::uint64_t dv = read_bits(v.bits_, pv, v.width_, v.mask_);
    const Dist sum = du + dv;
    best = (du != u.mask_) & (dv != v.mask_) & (sum < best) ? sum : best;
    pu += u.width_;
    pv += v.width_;
  }
  return best;
}

void SlackSketchSet::append_row(const Dist* row) {
  // The width holds every finite distance plus the all-ones sentinel.
  Dist top = 0;
  for (std::size_t i = 0; i < net_.size(); ++i) {
    if (row[i] != kInfDist) top = std::max(top, row[i] + 1);
  }
  const auto width = static_cast<unsigned>(std::bit_width(top));
  std::uint8_t* rec = rows_.append(1 + packed_bytes(net_.size(), width));
  rec[0] = static_cast<std::uint8_t>(width);
  BitWriter out(rec + 1);
  for (std::size_t i = 0; i < net_.size(); ++i) {
    out.put(row[i] == kInfDist ? low_mask(width) : row[i], width);
  }
  out.finish();
}

SlackSketchResult build_slack_sketches(const Graph& g, double epsilon,
                                       std::uint64_t seed, SimConfig cfg) {
  const NodeId n = g.num_nodes();
  std::vector<NodeId> net = sample_density_net(n, epsilon, seed);
  if (cfg.phase.empty()) cfg.phase = "slack_net_bf";
  MultiSourceBfResult bf = run_multi_source_bf(g, net, cfg);

  SlackSketchResult result;
  result.sketches = SlackSketchSet(net);
  std::vector<Dist> row(net.size());
  for (NodeId u = 0; u < n; ++u) {
    for (std::size_t i = 0; i < net.size(); ++i) {
      const auto it = bf.dist[u].find(net[i]);
      DS_CHECK_MSG(it != bf.dist[u].end(),
                   "connected graph: every net distance must be learned");
      row[i] = it->second;
    }
    result.sketches.append_row(row.data());
  }
  result.stats = bf.stats;
  return result;
}

}  // namespace dsketch
