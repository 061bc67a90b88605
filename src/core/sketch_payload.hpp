// The label plane of one built sketch set, any of the four families, and
// the construction that fills it.
//
// SketchPayload is the one in-memory layout of a build's sketches: the
// sketch set (serve/sketch_store) owns one whether it was built, loaded
// or packed, and the v3 record codec (serve/label_codec) encodes from
// and decodes into it. Every representation therefore answers through
// the same per-scheme query functions: tz_query, slack_query and
// cdg_query.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "congest/accounting.hpp"
#include "core/config.hpp"
#include "core/oracle.hpp"
#include "graph/graph.hpp"
#include "sketch/cdg_sketch.hpp"
#include "sketch/graceful_sketch.hpp"
#include "sketch/slack_sketch.hpp"
#include "sketch/tz_label.hpp"
#include "util/flags.hpp"

namespace dsketch {

/// Exactly one of the four sets is populated, per `scheme`.
struct SketchPayload {
  Scheme scheme = Scheme::kThorupZwick;
  LabelArena tz;
  SlackSketchSet slack;
  CdgSketchSet cdg;
  GracefulSketchSet graceful;

  /// Distance estimate from the two nodes' sketches only.
  Dist query(NodeId u, NodeId v) const;

  /// Words stored at node u, in the paper's accounting (2 words per
  /// pivot, bunch entry, net distance, and CDG net link).
  std::size_t size_words(NodeId u) const;

  /// Store segments: one per graceful level, one for the other schemes.
  std::size_t num_segments() const;

  /// The CDG set stored as segment `s` (cdg: s = 0; graceful: level s).
  const CdgSketchSet& cdg_segment(std::size_t s) const {
    return scheme == Scheme::kGraceful ? graceful.level(s) : cdg;
  }
};

/// Runs the distributed construction for config.scheme on g and returns
/// its sketches; `cost` receives the total CONGEST cost (tree building,
/// Bellman-Ford passes, dissemination). TZ draws its hierarchy with
/// Hierarchy::sample(n, k, config.seed).
SketchPayload build_sketch_payload(const Graph& g, const BuildConfig& config,
                                   SimStats& cost);

/// Maps the CLI/bench flag surface (--k, --epsilon, --seed, --echo,
/// --known-s, --async, --sim-threads) onto a BuildConfig for the given
/// scheme; used by every registered sketch factory so all consumers parse
/// flags once, identically.
BuildConfig sketch_build_config(Scheme scheme, const FlagSet& flags);

/// Worst-case guarantee string for a sketch family with parameters
/// filled in — shared by the heap and mmap stores so the two
/// representations of one scheme can never disagree.
std::string sketch_guarantee(Scheme scheme, std::uint32_t k, double epsilon);

/// Capabilities of a sketch family with the stretch bound resolved from
/// k (scheme-level entries pass k = 0).
Capabilities sketch_capabilities(Scheme scheme, std::uint32_t k);

}  // namespace dsketch
