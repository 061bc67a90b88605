#include "sketch/cdg_sketch.hpp"

#include <cmath>
#include <cstring>
#include <utility>

#include "congest/bellman_ford.hpp"
#include "congest/protocol.hpp"
#include "congest/word_stream.hpp"
#include "sketch/density_net.hpp"
#include "sketch/hierarchy.hpp"
#include "util/assert.hpp"

namespace dsketch {

std::vector<Word> serialize_label(const LabelView& label) {
  std::vector<Word> out;
  out.reserve(2 + label.size_words());
  out.push_back(label.levels);
  out.push_back(label.count);
  for (std::uint32_t i = 0; i < label.levels; ++i) {
    out.push_back(label.pivot(i).id);
    out.push_back(label.pivot(i).dist);
  }
  for (std::uint32_t i = 0; i < label.count; ++i) {
    const BunchEntry e = label.entry(i);
    out.push_back(e.node);
    out.push_back(e.dist);
  }
  return out;
}

TzLabelBuilder deserialize_label(NodeId owner, const std::vector<Word>& words) {
  DS_CHECK(words.size() >= 2);
  const auto levels = static_cast<std::uint32_t>(words[0]);
  const auto entries = static_cast<std::size_t>(words[1]);
  DS_CHECK(words.size() == 2 + 2 * levels + 2 * entries);
  TzLabelBuilder label(owner, levels);
  std::size_t pos = 2;
  for (std::uint32_t i = 0; i < levels; ++i) {
    label.set_pivot(i, DistKey{words[pos + 1], static_cast<NodeId>(words[pos])});
    pos += 2;
  }
  for (std::size_t e = 0; e < entries; ++e) {
    label.add_bunch_entry(
        BunchEntry{static_cast<NodeId>(words[pos]), words[pos + 1]});
    pos += 2;
  }
  label.sort_bunch();
  return label;
}

namespace {

/// Streams each net node's serialized label down its Voronoi tree as one
/// word stream (congest/word_stream); every other node relays the stream
/// to its children and reassembles it.
class LabelDisseminationProtocol : public Protocol {
 public:
  LabelDisseminationProtocol(const SuperSourceBfResult& voronoi,
                             const std::vector<std::vector<Word>>& payloads)
      : voronoi_(voronoi), payloads_(payloads), streams_(voronoi.dist.size()) {}

  void on_start(NodeCtx& ctx) override {
    const NodeId u = ctx.node();
    if (voronoi_.owner[u] != u) return;  // only net nodes originate
    for (const std::uint32_t e : voronoi_.child_edges[u]) {
      send_word_stream(ctx, e, payloads_[u]);
    }
  }

  void on_round(NodeCtx& ctx) override {
    const NodeId u = ctx.node();
    for (const Inbound& in : ctx.inbox()) {
      // Everything arrives on the Voronoi parent edge; relay downstream.
      for (const std::uint32_t e : voronoi_.child_edges[u]) {
        ctx.send(e, in.msg);
      }
      streams_[u].absorb(in.msg);
    }
  }

  /// Reassembled label words received by node u (not a net node).
  std::vector<Word> received(NodeId u) const { return streams_[u].words(); }
  /// True when every node holds its owner's label: net nodes their own,
  /// every other node a complete stream.
  bool complete() const {
    for (NodeId u = 0; u < streams_.size(); ++u) {
      if (voronoi_.owner[u] != u && !streams_[u].complete()) return false;
    }
    return true;
  }

 private:
  const SuperSourceBfResult& voronoi_;
  const std::vector<std::vector<Word>>& payloads_;
  std::vector<WordStreamAssembler> streams_;
};

}  // namespace

Dist cdg_query(const CdgRecord& u, const CdgRecord& v) {
  if (u.net_dist == kInfDist || v.net_dist == kInfDist) return kInfDist;
  const Dist mid = tz_query(u.label, v.label);
  if (mid == kInfDist) return kInfDist;
  return u.net_dist + mid + v.net_dist;
}

namespace {
/// u32 net node, u32 label owner, u64 net distance.
constexpr std::size_t kCdgPrefixBytes = 16;
}  // namespace

CdgRecord::CdgRecord(const std::uint8_t* rec, std::size_t size) {
  if (size < kCdgPrefixBytes) return;
  net_node = load_le32(rec);
  net_dist = load_le64(rec + 8);
  label = LabelView(load_le32(rec + 4), rec + kCdgPrefixBytes,
                    size - kCdgPrefixBytes);
}

bool CdgRecord::valid(const std::uint8_t* rec, std::size_t size) {
  return size >= kCdgPrefixBytes &&
         LabelView::valid(rec + kCdgPrefixBytes, size - kCdgPrefixBytes);
}

void CdgSketchSet::append(RecordSlabWriter& records, NodeId net_node,
                          Dist net_dist, const LabelView& label) {
  const std::span<const std::uint8_t> bytes = label.bytes();
  std::uint8_t* rec = records.append(kCdgPrefixBytes + bytes.size());
  store_le32(rec, net_node);
  store_le32(rec + 4, label.owner);
  store_le64(rec + 8, net_dist);
  std::memcpy(rec + kCdgPrefixBytes, bytes.data(), bytes.size());
}

CdgBuildResult build_cdg_sketches(const Graph& g, const CdgConfig& config,
                                  SimConfig sim_cfg) {
  const NodeId n = g.num_nodes();
  CdgBuildResult result;
  result.net = sample_density_net(n, config.epsilon, config.seed);

  // Step 2: Voronoi decomposition around the net.
  // Per-step phase labels (kept if the caller supplied one of its own).
  const bool custom_phase = !sim_cfg.phase.empty();
  SimConfig step_cfg = sim_cfg;
  if (!custom_phase) step_cfg.phase = "cdg_voronoi";
  SuperSourceBfResult voronoi = run_super_source_bf(g, result.net, step_cfg);
  result.voronoi_stats = voronoi.stats;

  // Step 3: Thorup-Zwick on the net. The level-sampling probability is
  // (10/eps * ln n)^{-1/k}; if the top level comes out empty (tiny nets,
  // large k), retry with fresh coins, then shrink k as a last resort.
  const double net_bound =
      10.0 / config.epsilon * std::log(static_cast<double>(n));
  std::uint32_t k = std::max<std::uint32_t>(1, config.k);
  Hierarchy hierarchy(1, std::vector<std::uint32_t>(n, 0));
  bool sampled = false;
  while (!sampled) {
    const double p = k == 1 ? 0.0 : std::pow(net_bound, -1.0 / k);
    for (std::uint64_t attempt = 0; attempt < 16; ++attempt) {
      Hierarchy h = Hierarchy::sample_on_subset(
          n, k, result.net, p, config.seed + 0x1000 + attempt);
      if (h.top_level_nonempty()) {
        hierarchy = std::move(h);
        sampled = true;
        break;
      }
    }
    if (!sampled) {
      DS_CHECK(k > 1);
      --k;
    }
  }
  result.k_used = k;
  if (!custom_phase) step_cfg.phase = "cdg_tz";
  TzDistributedResult tz =
      build_tz_distributed(g, hierarchy, config.termination, step_cfg);
  result.tz_stats = tz.stats;
  result.tz_stats += tz.tree_stats;

  // Step 4: stream each net node's label down its Voronoi tree.
  std::vector<std::vector<Word>> payloads(n);
  for (const NodeId w : result.net) {
    payloads[w] = serialize_label(tz.labels.view(w));
  }
  LabelDisseminationProtocol dissemination(voronoi, payloads);
  if (!custom_phase) step_cfg.phase = "cdg_dissemination";
  Simulator sim(g, dissemination, step_cfg);
  result.dissemination_stats = sim.run();
  DS_CHECK(!result.dissemination_stats.hit_round_limit);
  DS_CHECK_MSG(dissemination.complete(),
               "every node must receive its owner's full label");

  RecordSlabWriter records;
  for (NodeId u = 0; u < n; ++u) {
    const NodeId owner = voronoi.owner[u];
    if (owner == u) {
      CdgSketchSet::append(records, owner, voronoi.dist[u], tz.labels.view(u));
    } else {
      const TzLabelBuilder label =
          deserialize_label(owner, dissemination.received(u));
      CdgSketchSet::append(records, owner, voronoi.dist[u], label.view());
    }
  }
  result.sketches = CdgSketchSet(std::move(records).finish());
  return result;
}

}  // namespace dsketch
