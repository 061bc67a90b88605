#include "sketch/cdg_sketch.hpp"

#include <cmath>
#include <cstring>
#include <deque>
#include <unordered_map>
#include <utility>

#include "congest/bellman_ford.hpp"
#include "congest/protocol.hpp"
#include "sketch/density_net.hpp"
#include "sketch/hierarchy.hpp"
#include "util/assert.hpp"

namespace dsketch {

std::vector<Word> serialize_label(const LabelView& label) {
  std::vector<Word> out;
  out.reserve(2 + 2 * static_cast<std::size_t>(label.levels) +
              3 * static_cast<std::size_t>(label.count));
  out.push_back(label.levels);
  out.push_back(label.count);
  for (std::uint32_t i = 0; i < label.levels; ++i) {
    out.push_back(label.pivot(i).id);
    out.push_back(label.pivot(i).dist);
  }
  for (std::uint32_t i = 0; i < label.count; ++i) {
    const BunchEntry e = label.entry(i);
    out.push_back(e.node);
    out.push_back(e.level);
    out.push_back(e.dist);
  }
  return out;
}

TzLabelBuilder deserialize_label(NodeId owner, const std::vector<Word>& words) {
  DS_CHECK(words.size() >= 2);
  const auto levels = static_cast<std::uint32_t>(words[0]);
  const auto entries = static_cast<std::size_t>(words[1]);
  DS_CHECK(words.size() == 2 + 2 * levels + 3 * entries);
  TzLabelBuilder label(owner, levels);
  std::size_t pos = 2;
  for (std::uint32_t i = 0; i < levels; ++i) {
    label.set_pivot(i, DistKey{words[pos + 1], static_cast<NodeId>(words[pos])});
    pos += 2;
  }
  for (std::size_t e = 0; e < entries; ++e) {
    label.add_bunch_entry(BunchEntry{static_cast<NodeId>(words[pos]),
                                     static_cast<std::uint32_t>(words[pos + 1]),
                                     words[pos + 2]});
    pos += 3;
  }
  label.sort_bunch();
  return label;
}

namespace {

// Dissemination messages, reorder-tolerant (links may be asynchronous and
// non-FIFO): <kChunk, seq, w0, w1> carries words [2*seq, 2*seq+2) of the
// stream, zero-padded; <kEnd, total_words> announces the stream length.
constexpr Word kChunk = 1;
constexpr Word kEnd = 2;
constexpr std::size_t kPayloadWords = 2;  // fits max_message_words = 4

/// Streams each net node's serialized label down its Voronoi tree.
class LabelDisseminationProtocol : public Protocol {
 public:
  LabelDisseminationProtocol(const SuperSourceBfResult& voronoi,
                             const std::vector<std::vector<Word>>& payloads)
      : voronoi_(voronoi), payloads_(payloads) {
    nodes_.resize(voronoi.dist.size());
  }

  void on_start(NodeCtx& ctx) override {
    const NodeId u = ctx.node();
    if (voronoi_.owner[u] != u) return;  // only net nodes originate
    nodes_[u].done = true;               // own label, no stream needed
    const std::vector<Word>& words = payloads_[u];
    for (const std::uint32_t e : voronoi_.child_edges[u]) {
      push_stream(ctx, e, words);
    }
  }

  void on_round(NodeCtx& ctx) override {
    const NodeId u = ctx.node();
    NodeState& s = nodes_[u];
    for (const Inbound& in : ctx.inbox()) {
      // Everything arrives on the Voronoi parent edge; relay downstream.
      for (const std::uint32_t e : voronoi_.child_edges[u]) {
        ctx.send(e, in.msg);
      }
      if (in.msg.at(0) == kChunk) {
        const auto seq = static_cast<std::size_t>(in.msg.at(1));
        if (s.chunks.emplace(seq, std::pair<Word, Word>{in.msg.at(2),
                                                        in.msg.at(3)})
                .second) {
          // counted once even if a duplicate relay ever appeared
        }
      } else {
        DS_CHECK(in.msg.at(0) == kEnd);
        s.total_words = static_cast<std::size_t>(in.msg.at(1));
        s.have_total = true;
      }
      if (s.have_total &&
          s.chunks.size() == (s.total_words + kPayloadWords - 1) /
                                 kPayloadWords) {
        s.done = true;
      }
    }
  }

  /// Reassembled label words received by node u (empty for net nodes).
  std::vector<Word> received(NodeId u) const {
    const NodeState& s = nodes_[u];
    std::vector<Word> words(s.total_words, 0);
    for (const auto& [seq, pair] : s.chunks) {
      const std::size_t base = seq * kPayloadWords;
      DS_CHECK(base < s.total_words);
      words[base] = pair.first;
      if (base + 1 < s.total_words) words[base + 1] = pair.second;
    }
    return words;
  }
  bool complete() const {
    for (const auto& s : nodes_) {
      if (!s.done) return false;
    }
    return true;
  }

 private:
  struct NodeState {
    std::unordered_map<std::size_t, std::pair<Word, Word>> chunks;
    std::size_t total_words = 0;
    bool have_total = false;
    bool done = false;
  };

  static void push_stream(NodeCtx& ctx, std::uint32_t edge,
                          const std::vector<Word>& words) {
    for (std::size_t i = 0; i < words.size(); i += kPayloadWords) {
      Message m{kChunk, static_cast<Word>(i / kPayloadWords)};
      m.push(words[i]);
      m.push(i + 1 < words.size() ? words[i + 1] : 0);
      ctx.send(edge, std::move(m));
    }
    ctx.send(edge, Message{kEnd, words.size()});
  }

  const SuperSourceBfResult& voronoi_;
  const std::vector<std::vector<Word>>& payloads_;
  std::vector<NodeState> nodes_;
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

void CdgSketchSet::append(NodeId net_node, Dist net_dist,
                          const LabelView& label) {
  const std::span<const std::uint8_t> bytes = label.bytes();
  std::uint8_t* rec = records_.append(kCdgPrefixBytes + bytes.size());
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

  for (NodeId u = 0; u < n; ++u) {
    const NodeId owner = voronoi.owner[u];
    if (owner == u) {
      result.sketches.append(owner, voronoi.dist[u], tz.labels.view(u));
    } else {
      const TzLabelBuilder label =
          deserialize_label(owner, dissemination.received(u));
      result.sketches.append(owner, voronoi.dist[u], label.view());
    }
  }
  return result;
}

}  // namespace dsketch
