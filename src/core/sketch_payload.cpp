#include "core/sketch_payload.hpp"

#include <utility>

#include "obs/trace.hpp"
#include "sketch/hierarchy.hpp"

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

std::vector<std::uint8_t> SketchPayload::empty_record(Scheme scheme) {
  RecordSlab one;
  switch (scheme) {
    case Scheme::kThorupZwick: {
      LabelArena arena;
      arena.append(LabelView());
      one = arena.slab();
      break;
    }
    case Scheme::kSlack: {
      SlackSketchSet slack;  // an empty net: width 0, every distance kInfDist
      slack.append_row(nullptr);
      one = slack.rows();
      break;
    }
    case Scheme::kCdg:
    case Scheme::kGraceful: {
      CdgSketchSet cdg;
      cdg.append(kInvalidNode, kInfDist, LabelView());
      one = cdg.records();
      break;
    }
  }
  return {one.record(0), one.record(0) + one.record_size(0)};
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

Capabilities sketch_capabilities(Scheme scheme, std::uint32_t k) {
  Capabilities caps;
  caps.supports_paths = true;
  caps.supports_save = true;
  caps.build_cost_available = true;
  switch (scheme) {
    case Scheme::kThorupZwick:
      caps.stretch_bound = k > 0 ? static_cast<double>(2 * k - 1) : 0.0;
      break;
    case Scheme::kSlack:
      caps.stretch_bound = 3.0;
      caps.slack_only = true;
      // min over net nodes of d(u,w) + d(w,v): orientation-free.
      caps.symmetric = true;
      break;
    case Scheme::kCdg:
      caps.stretch_bound = k > 0 ? static_cast<double>(8 * k - 1) : 0.0;
      caps.slack_only = true;
      break;
    case Scheme::kGraceful:
      // O(log n): no constant bound; guarantee() carries the story.
      break;
  }
  return caps;
}

}  // namespace dsketch
