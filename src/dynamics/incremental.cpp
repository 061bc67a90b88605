#include "dynamics/incremental.hpp"

#include <algorithm>
#include <utility>

#include "core/sketch_payload.hpp"
#include "graph/shortest_paths.hpp"
#include "obs/trace.hpp"
#include "sketch/hierarchy.hpp"
#include "sketch/stretch_eval.hpp"
#include "sketch/tz_centralized.hpp"
#include "util/assert.hpp"

namespace dsketch {
namespace {

/// Base seed of the underestimate-rate probe's sampled sources; probe i
/// draws with kProbeSeed + i.
constexpr std::uint64_t kProbeSeed = 5;

}  // namespace

TzLabelOracle::TzLabelOracle(LabelArena labels, std::uint32_t k)
    : labels_(std::move(labels)), k_(k) {}

Dist TzLabelOracle::query(NodeId u, NodeId v) const {
  DS_CHECK(u < labels_.num_nodes() && v < labels_.num_nodes());
  return tz_query(labels_.view(u), labels_.view(v));
}

std::string TzLabelOracle::guarantee() const {
  // Not the scheme-level "stretch 2k-1 (all pairs)": repair keeps the
  // stored distances exact but never re-elects pivots or bunch
  // membership, so once the graph has moved only the one-sided bound
  // is promised. (A freshly built/rebuilt instance does meet 2k-1; the
  // conservative claim covers the whole lifetime.)
  return "stretch 2k-1 at build (k=" + std::to_string(k_) +
         "); one-sided only under live repair";
}

Capabilities TzLabelOracle::capabilities() const {
  return sketch_capabilities(Scheme::kThorupZwick);
}

TzDynamicSketch::TzDynamicSketch(const Graph& g, std::uint32_t k,
                                 std::uint64_t seed, ThreadPool* pool)
    : k_(k) {
  build_labels(g, seed, pool);
}

void TzDynamicSketch::build_labels(const Graph& g, std::uint64_t seed,
                                   ThreadPool* pool) {
  labels_ = build_tz_centralized(
      g, Hierarchy::sample(g.num_nodes(), k_, seed), pool);
}

bool TzDynamicSketch::apply(const Graph& updated, const EdgeUpdate& update) {
  const obs::Span apply_span("churn_apply");
  ++stats_.updates_seen;
  if (!is_distance_decrease(update)) {
    ++stats_.unrepairable;
    ++unrepaired_;
    return false;
  }
  const obs::Span repair_span("incremental_repair");
  DS_CHECK(updated.num_nodes() == labels_.num_nodes());
  const Dist we = update.weight;
  const std::vector<Dist> dist_a = dijkstra(updated, update.u);
  const std::vector<Dist> dist_b = dijkstra(updated, update.v);

  // Tightest detour through the updated edge between x and y, kInfDist
  // when neither orientation is connected.
  const auto via_edge = [&](NodeId x, NodeId y) {
    Dist best = kInfDist;
    if (dist_a[x] != kInfDist && dist_b[y] != kInfDist) {
      best = dist_a[x] + we + dist_b[y];
    }
    if (dist_b[x] != kInfDist && dist_a[y] != kInfDist) {
      best = std::min(best, dist_b[x] + we + dist_a[y]);
    }
    return best;
  };

  // The distance x stores to y after the update: d, or a shorter detour
  // through the updated edge. A pivot without a distance stays as it is.
  const auto tightened = [&](NodeId x, NodeId y, Dist d) {
    return d == kInfDist ? d : std::min(d, via_edge(x, y));
  };
  // Whether a distance of x's label tightens; where neither endpoint
  // reaches x none can.
  const auto tightens = [&](NodeId x, const LabelView& label) {
    if (dist_a[x] == kInfDist && dist_b[x] == kInfDist) return false;
    for (std::uint32_t i = 0; i < label.levels; ++i) {
      const DistKey p = label.pivot(i);
      if (tightened(x, p.id, p.dist) < p.dist) return true;
    }
    for (std::uint32_t j = 0; j < label.count; ++j) {
      const BunchEntry e = label.entry(j);
      if (tightened(x, e.node, e.dist) < e.dist) return true;
    }
    return false;
  };

  // Records are write-once: every label goes to a fresh slab, packed
  // straight into it where a distance tightened and copied otherwise.
  // The bunch is read in id order, so its entries need no sort.
  RecordSlabWriter repaired;
  std::vector<DistKey> pivots;
  std::vector<BunchEntry> bunch;
  bool improved = false;
  for (NodeId x = 0; x < updated.num_nodes(); ++x) {
    const LabelView label = labels_.view(x);
    if (!tightens(x, label)) {
      repaired.append(label.bytes());
      continue;
    }
    improved = true;
    pivots.clear();
    bunch.clear();
    for (std::uint32_t i = 0; i < label.levels; ++i) {
      DistKey p = label.pivot(i);
      const Dist d = tightened(x, p.id, p.dist);
      stats_.entries_improved += d < p.dist;
      p.dist = d;
      pivots.push_back(p);
    }
    for (std::uint32_t j = 0; j < label.count; ++j) {
      BunchEntry e = label.entry(j);
      const Dist d = tightened(x, e.node, e.dist);
      stats_.entries_improved += d < e.dist;
      e.dist = d;
      bunch.push_back(e);
    }
    const LabelParts parts{pivots, bunch};
    pack_label(parts, repaired.append(packed_label_size(parts)));
  }
  // As in rebuild(), the arena is replaced whole, and only when it changed.
  if (improved) {
    labels_ = LabelArena(std::move(repaired).finish(), labels_.k());
  }
  ++stats_.repaired;
  return true;
}

void TzDynamicSketch::rebuild(const Graph& g, std::uint64_t seed,
                              ThreadPool* pool) {
  const obs::Span span("sketch_rebuild");
  build_labels(g, seed, pool);
  unrepaired_ = 0;
  ++stats_.rebuilds;
}

std::shared_ptr<const DistanceOracle> TzDynamicSketch::snapshot() const {
  return std::make_shared<TzLabelOracle>(labels_, k_);
}

bool RebuildPolicy::note_update(const Graph& current,
                                const DistanceOracle& serving,
                                bool repaired) {
  ++updates_;
  if (!repaired) ++unrepaired_;
  if (cfg_.max_updates != 0 && updates_ >= cfg_.max_updates) return true;
  if (cfg_.max_unrepaired != 0 && unrepaired_ >= cfg_.max_unrepaired) {
    return true;
  }
  if (cfg_.probe_every != 0 && cfg_.max_underestimate_rate > 0 &&
      updates_ % cfg_.probe_every == 0) {
    ++probes_;
    last_rate_ =
        evaluate_stretch(current,
                         SampledGroundTruth(current, cfg_.probe_sources,
                                            kProbeSeed + probes_),
                         serving, {})
            .underestimate_rate();
    if (last_rate_ > cfg_.max_underestimate_rate) return true;
  }
  return false;
}

void RebuildPolicy::note_rebuilt() {
  updates_ = 0;
  unrepaired_ = 0;
}

}  // namespace dsketch
