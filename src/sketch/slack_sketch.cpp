#include "sketch/slack_sketch.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "sketch/density_net.hpp"
#include "sketch/hierarchy.hpp"
#include "sketch/tz_distributed.hpp"
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

void SlackSketchSet::append_row(RecordSlabWriter& rows,
                                std::span<const Dist> row) {
  // The width holds every finite distance plus the all-ones sentinel.
  Dist top = 0;
  for (const Dist d : row) {
    if (d != kInfDist) top = std::max(top, d + 1);
  }
  const auto width = static_cast<unsigned>(std::bit_width(top));
  std::uint8_t* rec = rows.append(1 + packed_bytes(row.size(), width));
  rec[0] = static_cast<std::uint8_t>(width);
  BitWriter out(rec + 1);
  for (const Dist d : row) out.put(d == kInfDist ? low_mask(width) : d, width);
  out.finish();
}

SlackSketchResult build_slack_sketches(const Graph& g, double epsilon,
                                       std::uint64_t seed, SimConfig cfg) {
  const NodeId n = g.num_nodes();
  std::vector<NodeId> net = sample_density_net(n, epsilon, seed);
  // Algorithm 1 from the net is the TZ build at k = 1: the net is A_0, no
  // level gates it, and each node's bunch is every net node it reaches.
  std::vector<std::uint32_t> levels(n, 0);
  for (const NodeId w : net) levels[w] = 1;
  if (cfg.phase.empty()) cfg.phase = "slack_net_bf";
  TzDistributedResult bf = build_tz_distributed(
      g, Hierarchy(1, std::move(levels)), TerminationMode::kOracle, cfg);
  DS_CHECK_MSG(bf.completed, "the net Bellman-Ford did not finish");

  RecordSlabWriter rows;
  std::vector<Dist> row(net.size());
  for (NodeId u = 0; u < n; ++u) {
    // The bunch is id-ordered, and so is the net.
    const LabelView label = bf.labels.view(u);
    DS_CHECK_MSG(label.count == net.size(),
                 "connected graph: every net distance must be learned");
    for (std::uint32_t i = 0; i < label.count; ++i) {
      const BunchEntry e = label.entry(i);
      DS_CHECK(e.node == net[i]);
      row[i] = e.dist;
    }
    SlackSketchSet::append_row(rows, row);
  }
  SlackSketchResult result;
  result.sketches = SlackSketchSet(std::move(net), std::move(rows).finish());
  result.stats = bf.stats;
  return result;
}

}  // namespace dsketch
