#include "dynamics/incremental.hpp"

#include <algorithm>
#include <utility>

#include "core/sketch_payload.hpp"
#include "obs/trace.hpp"
#include "sketch/hierarchy.hpp"
#include "sketch/stretch_eval.hpp"
#include "sketch/tz_centralized.hpp"
#include "util/assert.hpp"

namespace dsketch {

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
  Capabilities caps = sketch_capabilities(Scheme::kThorupZwick, k_);
  caps.stretch_bound = 0.0;  // void once repairs diverge from the build
  caps.supports_save = false;         // transient serving artifact
  caps.build_cost_available = false;  // no CONGEST run behind it
  return caps;
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
  recompute_bound();
}

void TzDynamicSketch::recompute_bound() {
  bound_ = 0;
  for (NodeId u = 0; u < labels_.num_nodes(); ++u) {
    const LabelView label = labels_.view(u);
    for (std::uint32_t i = 0; i < label.levels; ++i) {
      const DistKey p = label.pivot(i);
      if (p.id != kInvalidNode && p.dist != kInfDist) {
        bound_ = std::max(bound_, p.dist);
      }
    }
    for (std::uint32_t j = 0; j < label.count; ++j) {
      bound_ = std::max(bound_, label.entry(j).dist);
    }
  }
}

std::size_t TzDynamicSketch::explore(const Graph& g, NodeId source,
                                     std::vector<Dist>& out) {
  out.assign(g.num_nodes(), kInfDist);
  const Dist bound = bound_;
  // Expansion stops past the bound: prefixes of shortest paths are
  // monotone, so every node whose true distance is <= bound still
  // settles exactly; values beyond it can never beat a stored entry.
  sp_pruned_dijkstra(g, source, ws_,
                     [bound](NodeId, Dist d) { return d <= bound; });
  std::size_t recorded = 0;
  for (NodeId x = 0; x < g.num_nodes(); ++x) {
    const Dist d = ws_.dist(x);
    if (d <= bound) {
      out[x] = d;
      ++recorded;
    }
  }
  return recorded;
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
  stats_.nodes_explored += explore(updated, update.u, dist_a_);
  stats_.nodes_explored += explore(updated, update.v, dist_b_);

  // Tightest detour through the updated edge between x and y, kInfDist
  // when neither orientation is inside the explored bound.
  const auto via_edge = [&](NodeId x, NodeId y) {
    Dist best = kInfDist;
    if (dist_a_[x] != kInfDist && dist_b_[y] != kInfDist) {
      best = dist_a_[x] + we + dist_b_[y];
    }
    if (dist_b_[x] != kInfDist && dist_a_[y] != kInfDist) {
      best = std::min(best, dist_b_[x] + we + dist_a_[y]);
    }
    return best;
  };

  for (NodeId x = 0; x < updated.num_nodes(); ++x) {
    if (dist_a_[x] == kInfDist && dist_b_[x] == kInfDist) continue;
    const LabelView label = labels_.view(x);
    for (std::uint32_t i = 0; i < label.levels; ++i) {
      const DistKey p = label.pivot(i);
      if (p.id == kInvalidNode || p.dist == kInfDist) continue;
      const Dist cand = via_edge(x, p.id);
      if (cand < p.dist) {
        labels_.tighten_pivot(x, i, cand);
        ++stats_.entries_improved;
      }
    }
    for (std::uint32_t j = 0; j < label.count; ++j) {
      const BunchEntry e = label.entry(j);
      const Dist cand = via_edge(x, e.node);
      if (cand < e.dist) {
        labels_.tighten_bunch_dist(x, j, cand);
        ++stats_.entries_improved;
      }
    }
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
                                            cfg_.probe_seed + probes_),
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
