#include "core/sketch_payload.hpp"

#include <utility>

#include "obs/trace.hpp"
#include "sketch/hierarchy.hpp"
#include "util/assert.hpp"

namespace dsketch {

Dist SketchPayload::query(NodeId u, NodeId v) const {
  switch (scheme) {
    case Scheme::kThorupZwick:
      return tz_query(tz.view(u), tz.view(v));
    case Scheme::kSlack:
      return slack.query(u, v);
    case Scheme::kCdg:
      return cdg.query(u, v);
    case Scheme::kGraceful:
      return graceful.query(u, v);
  }
  return kInfDist;
}

void SketchPayload::query_batch(std::span<const QueryPair> pairs,
                                std::span<Dist> out) const {
  DS_CHECK(pairs.size() == out.size());
  // Group prefetching (Chen, Ailamaki, Gibbons & Mowry, ICDE 2004): while
  // pair i merges, the first two cache lines of both records of pair i+8
  // and the offset-table entries of pair i+16 are already on their way,
  // so the record misses of a batch overlap instead of each stalling its
  // own merge. A record's address is read from its offset entry, so the
  // entries run another 8 pairs ahead. On a 100k-node TZ store, 8 pairs
  // ahead beat 16; where the store fits in cache the hints cost nothing
  // measurable.
  constexpr std::size_t kRecordAhead = 8;
  constexpr std::size_t kOffsetAhead = 16;
  const std::size_t segments = num_segments();
  const NodeId n = segments == 0 ? 0 : segment(0).num_records();
  // Only ids that pass the check below are looked up ahead of it: an
  // out-of-range id has no offset entry to read.
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (i + kOffsetAhead < pairs.size()) {
      const auto [u, v] = pairs[i + kOffsetAhead];
      if (u < n && v < n) {
        for (std::size_t s = 0; s < segments; ++s) {
          segment(s).prefetch_offset(u);
          segment(s).prefetch_offset(v);
        }
      }
    }
    if (i + kRecordAhead < pairs.size()) {
      const auto [u, v] = pairs[i + kRecordAhead];
      if (u < n && v < n) {
        for (std::size_t s = 0; s < segments; ++s) {
          segment(s).prefetch_record(u);
          segment(s).prefetch_record(v);
        }
      }
    }
    const auto [u, v] = pairs[i];
    DS_CHECK(u < n && v < n);
    out[i] = query(u, v);
  }
}

std::size_t SketchPayload::size_words(NodeId u) const {
  switch (scheme) {
    case Scheme::kThorupZwick:
      return tz.size_words(u);
    case Scheme::kSlack:
      return slack.size_words(u);
    case Scheme::kCdg:
      return cdg.size_words(u);
    case Scheme::kGraceful:
      return graceful.size_words(u);
  }
  return 0;
}

std::size_t SketchPayload::num_segments() const {
  return scheme == Scheme::kGraceful ? graceful.num_levels() : 1;
}

const RecordSlab& SketchPayload::segment(std::size_t s) const {
  switch (scheme) {
    case Scheme::kThorupZwick:
      return tz.slab();
    case Scheme::kSlack:
      return slack.rows();
    case Scheme::kCdg:
      return cdg.records();
    case Scheme::kGraceful:
      break;
  }
  return graceful.level(s).records();
}

SketchPayload SketchPayload::from_segments(Scheme scheme, std::uint32_t k,
                                           std::vector<NodeId> slack_net,
                                           std::vector<RecordSlab> segments) {
  SketchPayload payload;
  payload.scheme = scheme;
  switch (scheme) {
    case Scheme::kThorupZwick:
      payload.tz = LabelArena(std::move(segments.at(0)), k);
      break;
    case Scheme::kSlack:
      payload.slack =
          SlackSketchSet(std::move(slack_net), std::move(segments.at(0)));
      break;
    case Scheme::kCdg:
      payload.cdg = CdgSketchSet(std::move(segments.at(0)));
      break;
    case Scheme::kGraceful: {
      std::vector<CdgSketchSet> levels;
      for (RecordSlab& slab : segments) levels.emplace_back(std::move(slab));
      payload.graceful = GracefulSketchSet(std::move(levels));
      break;
    }
  }
  return payload;
}

void SketchPayload::append_empty_record(Scheme scheme,
                                        RecordSlabWriter& records) {
  switch (scheme) {
    case Scheme::kThorupZwick:
      records.append(LabelView().bytes());
      return;
    case Scheme::kSlack:  // an empty net: width 0, every distance kInfDist
      SlackSketchSet::append_row(records, {});
      return;
    case Scheme::kCdg:
    case Scheme::kGraceful:
      CdgSketchSet::append(records, kInvalidNode, kInfDist, LabelView());
      return;
  }
}

bool SketchPayload::valid_record(Scheme scheme, const std::uint8_t* record,
                                 std::size_t size,
                                 std::size_t slack_net_size) {
  switch (scheme) {
    case Scheme::kThorupZwick:
      return LabelView::valid(record, size);
    case Scheme::kSlack:
      return SlackRow::valid(record, size, slack_net_size);
    case Scheme::kCdg:
    case Scheme::kGraceful:
      return CdgRecord::valid(record, size);
  }
  return false;
}

SketchPayload build_sketch_payload(const Graph& g, const BuildConfig& config,
                                   SimStats& cost) {
  SketchPayload payload;
  payload.scheme = config.scheme;
  const obs::Span build_span("sketch_build",
                             static_cast<std::uint64_t>(g.num_nodes()));
  switch (config.scheme) {
    case Scheme::kThorupZwick: {
      const obs::Span span("build_tz_distributed");
      TzDistributedResult r = build_tz_distributed(
          g, Hierarchy::sample(g.num_nodes(), config.k, config.seed),
          config.termination, config.sim);
      cost = r.stats;
      cost += r.tree_stats;
      payload.tz = std::move(r.labels);
      break;
    }
    case Scheme::kSlack: {
      const obs::Span span("build_slack_sketches");
      SlackSketchResult r =
          build_slack_sketches(g, config.epsilon, config.seed, config.sim);
      cost = r.stats;
      payload.slack = std::move(r.sketches);
      break;
    }
    case Scheme::kCdg: {
      const obs::Span span("build_cdg_sketches");
      CdgConfig cdg;
      cdg.epsilon = config.epsilon;
      cdg.k = config.k;
      cdg.seed = config.seed;
      cdg.termination = config.termination;
      CdgBuildResult r = build_cdg_sketches(g, cdg, config.sim);
      cost = r.total();
      payload.cdg = std::move(r.sketches);
      break;
    }
    case Scheme::kGraceful: {
      const obs::Span span("build_graceful_sketches");
      GracefulConfig gc;
      gc.seed = config.seed;
      gc.termination = config.termination;
      GracefulBuildResult r = build_graceful_sketches(g, gc, config.sim);
      cost = r.total;
      payload.graceful = std::move(r.sketches);
      break;
    }
  }
  return payload;
}

BuildConfig sketch_build_config(Scheme scheme, const FlagSet& flags) {
  BuildConfig cfg;
  cfg.scheme = scheme;
  cfg.k = static_cast<std::uint32_t>(flags.get("k", std::int64_t{3}));
  cfg.epsilon = flags.get("epsilon", 0.1);
  cfg.seed = static_cast<std::uint64_t>(flags.get("seed", std::int64_t{1}));
  if (flags.get_bool("echo")) cfg.termination = TerminationMode::kEcho;
  if (flags.get_bool("known-s")) cfg.termination = TerminationMode::kKnownS;
  cfg.sim.async_max_delay =
      static_cast<std::uint32_t>(flags.get("async", std::int64_t{1}));
  // Worker lanes for the event-driven simulator: 1 = serial (default),
  // 0 = all hardware threads, N = a dedicated pool of N lanes. Results
  // are byte-identical across settings; this is purely a wall-clock knob.
  cfg.sim.threads =
      static_cast<unsigned>(flags.get("sim-threads", std::int64_t{1}));
  return cfg;
}

std::string sketch_guarantee(Scheme scheme, std::uint32_t k,
                             double epsilon) {
  switch (scheme) {
    case Scheme::kThorupZwick:
      return "stretch " + std::to_string(2 * k - 1) + " (all pairs)";
    case Scheme::kSlack:
      return "stretch 3 (eps=" + std::to_string(epsilon) + "-slack)";
    case Scheme::kCdg:
      return "stretch " + std::to_string(8 * k - 1) + " (eps=" +
             std::to_string(epsilon) + "-slack)";
    case Scheme::kGraceful:
      return "stretch O(log n), average O(1)";
  }
  return "";
}

Capabilities sketch_capabilities(Scheme scheme) {
  // Every family's estimate is a witnessed path; only slack's, a min over
  // net nodes of d(u,w) + d(w,v), is orientation-free.
  return {.supports_paths = true, .symmetric = scheme == Scheme::kSlack};
}

}  // namespace dsketch
