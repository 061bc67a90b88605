#include "core/sketch_oracle.hpp"

#include <istream>
#include <ostream>
#include <stdexcept>

#include "core/serialization.hpp"
#include "obs/trace.hpp"
#include "sketch/hierarchy.hpp"
#include "util/assert.hpp"

namespace dsketch {

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

SketchOracle::SketchOracle(const Graph& g, const BuildConfig& config)
    : config_(config), n_(g.num_nodes()) {
  payload_.scheme = config.scheme;
  const obs::Span build_span("sketch_oracle_build",
                             static_cast<std::uint64_t>(n_));
  switch (config.scheme) {
    case Scheme::kThorupZwick: {
      const obs::Span span("build_tz_distributed");
      // Resample until the top level is populated (whp on the first try).
      Hierarchy h = Hierarchy::sample(g.num_nodes(), config.k, config.seed);
      for (std::uint64_t bump = 1; !h.top_level_nonempty(); ++bump) {
        h = Hierarchy::sample(g.num_nodes(), config.k, config.seed + bump);
      }
      TzDistributedResult r =
          build_tz_distributed(g, h, config.termination, config.sim);
      cost_ = r.stats;
      cost_ += r.tree_stats;
      payload_.tz = std::move(r.labels);
      break;
    }
    case Scheme::kSlack: {
      const obs::Span span("build_slack_sketches");
      SlackSketchResult r =
          build_slack_sketches(g, config.epsilon, config.seed, config.sim);
      cost_ = r.stats;
      payload_.slack = std::move(r.sketches);
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
      cost_ = r.total();
      payload_.cdg = std::move(r.sketches);
      break;
    }
    case Scheme::kGraceful: {
      const obs::Span span("build_graceful_sketches");
      GracefulConfig gc;
      gc.seed = config.seed;
      gc.termination = config.termination;
      GracefulBuildResult r = build_graceful_sketches(g, gc, config.sim);
      cost_ = r.total;
      payload_.graceful = std::move(r.sketches);
      break;
    }
  }
}

Dist SketchOracle::query(NodeId u, NodeId v) const {
  DS_CHECK(u < n_ && v < n_);
  return payload_.query(u, v);
}

std::size_t SketchOracle::size_words(NodeId u) const {
  DS_CHECK(u < n_);
  return payload_.size_words(u);
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

std::string SketchOracle::guarantee() const {
  return sketch_guarantee(config_.scheme, config_.k, config_.epsilon);
}

Capabilities SketchOracle::capabilities() const {
  Capabilities caps = sketch_capabilities(config_.scheme, config_.k);
  caps.build_cost_available = cost_available_;
  return caps;
}

void SketchOracle::save_payload(std::ostream& out) const {
  write_sketch_payload(out, payload_, n_);
}

std::unique_ptr<SketchOracle> SketchOracle::load_payload(
    std::istream& in, const OracleEnvelope& envelope) {
  auto oracle = std::unique_ptr<SketchOracle>(new SketchOracle());
  oracle->n_ = envelope.n;
  oracle->cost_available_ = false;  // paid by whoever built, not persisted
  oracle->config_.k = envelope.k;
  oracle->epsilon_recorded_ = envelope.epsilon_recorded;
  if (envelope.epsilon_recorded) oracle->config_.epsilon = envelope.epsilon;
  if (envelope.scheme == "tz") {
    oracle->config_.scheme = Scheme::kThorupZwick;
  } else if (envelope.scheme == "slack") {
    oracle->config_.scheme = Scheme::kSlack;
  } else if (envelope.scheme == "cdg") {
    oracle->config_.scheme = Scheme::kCdg;
  } else if (envelope.scheme == "graceful") {
    oracle->config_.scheme = Scheme::kGraceful;
  } else {
    throw std::runtime_error("unknown sketch scheme in envelope: " +
                             envelope.scheme);
  }
  oracle->payload_ = read_sketch_payload(in, oracle->config_.scheme);
  // The payload carries its own record counts; the envelope's n must
  // agree or queries would index past the loaded vectors (the CLI
  // bounds-checks against num_nodes(), which is envelope-derived).
  const auto check_count = [&](std::size_t payload_nodes) {
    if (payload_nodes != envelope.n) {
      throw std::runtime_error(
          "sketch payload covers " + std::to_string(payload_nodes) +
          " nodes but the envelope header claims " +
          std::to_string(envelope.n));
    }
  };
  const SketchPayload& p = oracle->payload_;
  switch (p.scheme) {
    case Scheme::kThorupZwick:
      check_count(p.tz.num_nodes());
      break;
    case Scheme::kSlack:
      check_count(p.slack.num_nodes());
      break;
    case Scheme::kCdg:
    case Scheme::kGraceful:
      for (std::size_t s = 0; s < p.num_segments(); ++s) {
        check_count(p.cdg_segment(s).num_nodes());
      }
      break;
  }
  return oracle;
}

void register_sketch_oracles(OracleRegistry& reg) {
  // k_flag / uses_epsilon reflect which flags the scheme actually
  // consumes: validating a flag the build ignores would reject harmless
  // invocations against meaningless recorded defaults.
  const auto add = [&reg](const char* name, Scheme scheme,
                          const char* guarantee, const char* summary,
                          const char* k_flag, bool uses_epsilon) {
    OracleScheme s;
    s.name = name;
    s.guarantee = guarantee;
    s.summary = summary;
    // Scheme-level capabilities (k = 0: parameter-dependent bounds stay
    // unresolved); instances resolve them with the build values.
    s.caps = sketch_capabilities(scheme, 0);
    s.k_flag = k_flag;
    s.uses_epsilon = uses_epsilon;
    s.build = [scheme](const Graph& g, const FlagSet& flags) {
      return std::unique_ptr<DistanceOracle>(
          new SketchOracle(g, sketch_build_config(scheme, flags)));
    };
    s.load = [](std::istream& in, const OracleEnvelope& envelope) {
      return std::unique_ptr<DistanceOracle>(
          SketchOracle::load_payload(in, envelope));
    };
    reg.add(std::move(s));
  };
  add("tz", Scheme::kThorupZwick, "stretch 2k-1 (all pairs)",
      "Thorup-Zwick distributed sketches (Theorem 1.1); flags: --k --seed "
      "--echo --known-s --async",
      "k", false);
  add("slack", Scheme::kSlack, "stretch 3 (eps-slack)",
      "epsilon-density-net slack sketches (Theorem 4.3); flags: --epsilon "
      "--seed",
      "", true);
  add("cdg", Scheme::kCdg, "stretch 8k-1 (eps-slack)",
      "coarse distance-graph sketches (Theorem 4.6); flags: --k --epsilon "
      "--seed",
      "k", true);
  add("graceful", Scheme::kGraceful, "stretch O(log n), average O(1)",
      "graceful-degradation multi-level sketches (Theorem 1.3); flags: "
      "--seed",
      "", false);
}

}  // namespace dsketch
