// (ε,k)-CDG sketches (§4, Lemma 4.4/4.5, Theorem 4.6).
//
// Construction pipeline, all distributed:
//   1. sample an ε-density net N (zero rounds, Lemma 4.2);
//   2. super-source Bellman–Ford from N: every node u learns its nearest net
//      node u' (the Voronoi owner), d(u,u'), and the Voronoi-forest parent
//      edge (O(S) rounds);
//   3. Thorup–Zwick on the net through G: hierarchy A_0 = N ⊇ … ⊇ A_{k-1}
//      sampled with probability (10/ε · ln n)^{-1/k}; Algorithm 2 runs with
//      those level sets, giving every net node its TZ label over the net
//      metric (Lemma 4.5);
//   4. label dissemination: each net node streams its serialized label down
//      its Voronoi tree, 3 payload words per message, pipelined — the step
//      the paper leaves implicit; we build and charge it (E5 reports its
//      share of the cost).
//
// The sketch of u is (u', d(u,u'), L(u')); the estimate for (u,v) is
//   d(u,u') + tz_query(L(u'), L(v')) + d(v',v)
// with stretch ≤ 8k-1 for ε-far pairs.
#pragma once

#include <cstdint>
#include <vector>

#include "congest/accounting.hpp"
#include "congest/sim.hpp"
#include "graph/graph.hpp"
#include "sketch/tz_distributed.hpp"
#include "sketch/tz_label.hpp"

namespace dsketch {

struct CdgConfig {
  double epsilon = 0.1;
  std::uint32_t k = 2;
  std::uint64_t seed = 1;
  TerminationMode termination = TerminationMode::kOracle;
};

/// One node's CDG sketch, viewed in place.
struct CdgRecord {
  NodeId net_node = kInvalidNode;  ///< u' — nearest net node
  Dist net_dist = kInfDist;        ///< d(u, u')
  LabelView label;                 ///< L(u'), as disseminated; owner u'

  /// The packed record at [rec, rec + size), 8 bytes past which are
  /// readable: u32 net node, u32 label owner, u64 net distance, then the
  /// label's TZ record. A record too short for that prefix reads as the
  /// empty sketch (net distance kInfDist).
  CdgRecord(const std::uint8_t* rec, std::size_t size);
  CdgRecord() = default;

  /// True when the record is exactly `size` bytes of well-formed sketch.
  static bool valid(const std::uint8_t* rec, std::size_t size);
};

/// The CDG estimate d(u,u') + tz_query(L(u'), L(v')) + d(v',v) from two
/// records. An infinite net distance (unreachable net node, or a
/// quarantined store record) answers kInfDist instead of wrapping the sum.
Dist cdg_query(const CdgRecord& u, const CdgRecord& v);

/// Every node's CDG sketch, one packed record per node (node u's record
/// holds L(u')).
class CdgSketchSet {
 public:
  CdgSketchSet() = default;
  /// Serves the packed records of `records` (e.g. borrowed from a store
  /// file).
  explicit CdgSketchSet(RecordSlab records) : records_(std::move(records)) {}

  /// Appends node num_nodes()'s sketch; label.owner is kept as the owner
  /// of the label (u').
  void append(NodeId net_node, Dist net_dist, const LabelView& label);

  Dist query(NodeId u, NodeId v) const {
    return u == v ? 0 : cdg_query(sketch(u), sketch(v));
  }
  /// Nodes covered (one sketch per node).
  std::size_t num_nodes() const { return records_.num_records(); }
  std::size_t size_words(NodeId u) const {
    return 2 + sketch(u).label.size_words();
  }
  CdgRecord sketch(NodeId u) const {
    return CdgRecord(records_.record(u), records_.record_size(u));
  }
  /// The packed records, as a store segment holds them.
  const RecordSlab& records() const { return records_; }

 private:
  RecordSlab records_;
};

struct CdgBuildResult {
  CdgSketchSet sketches;
  std::vector<NodeId> net;
  SimStats voronoi_stats;        ///< super-source BF (+ child claims)
  SimStats tz_stats;             ///< Algorithm 2 on the net (+ tree, if echo)
  SimStats dissemination_stats;  ///< label streaming down Voronoi trees
  std::uint32_t k_used = 0;      ///< k after empty-top-level fallback

  SimStats total() const {
    SimStats s = voronoi_stats;
    s += tz_stats;
    s += dissemination_stats;
    return s;
  }
};

CdgBuildResult build_cdg_sketches(const Graph& g, const CdgConfig& config,
                                  SimConfig sim_cfg = {});

/// Label wire format used by the dissemination step (exposed for tests):
/// [levels, bunch_count, (pivot id, pivot dist) x levels,
///  (node, level, dist) x bunch_count].
std::vector<Word> serialize_label(const LabelView& label);
TzLabelBuilder deserialize_label(NodeId owner, const std::vector<Word>& words);

}  // namespace dsketch
