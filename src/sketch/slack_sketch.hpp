// Stretch-3 ε-slack sketches (Theorem 4.3).
//
// Build an ε-density net N, then run the k-source shortest paths of
// Algorithm 1 from N so every node learns d(u, w) for all w ∈ N. That
// algorithm is Algorithm 2 without its gate, so it runs as the TZ
// construction over one level, A_0 = N (sketch/tz_distributed), and each
// node's bunch is its row. The sketch of u is the full vector of net
// distances (O((1/ε) log n) words); the estimate for (u, v) is
//   min_{w in N} d(u,w) + d(w,v),
// which is ≥ d(u,v) always and ≤ 3·d(u,v) whenever v is ε-far from u.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "congest/accounting.hpp"
#include "congest/sim.hpp"
#include "graph/graph.hpp"
#include "sketch/record_slab.hpp"

namespace dsketch {

/// One node's slack sketch, read in place from its packed record: a u8
/// bit width, then one distance per net node at that width, where the
/// all-ones value stands for kInfDist.
class SlackRow {
 public:
  /// The empty row (size 0): every query against it answers kInfDist.
  SlackRow() = default;
  /// The record at [rec, rec + size) for a net of `net_size` nodes, 8
  /// bytes past which are readable. A record whose width is out of range
  /// or whose row overruns `size` reads as the empty row.
  SlackRow(const std::uint8_t* rec, std::size_t size, std::size_t net_size);

  /// True when the record is exactly `size` bytes of a well-formed row.
  static bool valid(const std::uint8_t* rec, std::size_t size,
                    std::size_t net_size);

  std::size_t size() const { return size_; }
  /// Distance to the i-th net node.
  Dist at(std::size_t i) const {
    const std::uint64_t x = read_bits(bits_, i * width_, width_, mask_);
    return x == mask_ ? kInfDist : x;
  }

 private:
  friend Dist slack_query(const SlackRow& u, const SlackRow& v);

  const std::uint8_t* bits_ = nullptr;
  unsigned width_ = 0;
  std::uint64_t mask_ = 0;
  std::size_t size_ = 0;
};

/// The slack estimate from two sketch rows over one net: min over net
/// nodes w of d(u,w) + d(w,v), skipping unreachable w.
Dist slack_query(const SlackRow& u, const SlackRow& v);

/// Every node's slack sketch: the net, and one packed row per node.
class SlackSketchSet {
 public:
  SlackSketchSet() = default;
  /// Serves the packed rows of `rows` (from append_row, or a store file's).
  SlackSketchSet(std::vector<NodeId> net, RecordSlab rows)
      : net_(std::move(net)), rows_(std::move(rows)) {}

  /// Packs `row`, one node's distances to every net node in net order,
  /// as the next record of `rows`.
  static void append_row(RecordSlabWriter& rows, std::span<const Dist> row);

  const std::vector<NodeId>& net() const { return net_; }

  /// Nodes covered (rows of the distance table).
  std::size_t num_nodes() const { return rows_.num_records(); }

  /// Node u's row: its distance to every net node, in net() order.
  SlackRow row(NodeId u) const {
    return SlackRow(rows_.record(u), rows_.record_size(u), net_.size());
  }
  /// The packed rows, as a store segment holds them.
  const RecordSlab& rows() const { return rows_; }

  /// Estimate d(u,v) from the two stored sketches only.
  Dist query(NodeId u, NodeId v) const {
    return u == v ? 0 : slack_query(row(u), row(v));
  }

  /// Words stored at node u: one (id, distance) pair per net node.
  std::size_t size_words(NodeId u) const {
    (void)u;
    return 2 * net_.size();
  }

 private:
  std::vector<NodeId> net_;
  RecordSlab rows_;
};

struct SlackSketchResult {
  SlackSketchSet sketches;
  SimStats stats;
};

/// Distributed construction per Theorem 4.3.
SlackSketchResult build_slack_sketches(const Graph& g, double epsilon,
                                       std::uint64_t seed, SimConfig cfg = {});

}  // namespace dsketch
