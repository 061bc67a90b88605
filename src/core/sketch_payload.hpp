// The label plane of one built sketch set, any of the four families.
//
// SketchPayload is the one in-memory layout of a build's sketches: the
// build-side oracle (core/sketch_oracle) owns one, the heap serving store
// (serve/sketch_store) owns a copy of the same type, and the v3 record
// codec (serve/label_codec) encodes from and decodes into it. Both
// classes therefore answer through the same per-scheme query functions:
// tz_query, slack_query and cdg_query.
#pragma once

#include <cstddef>

#include "core/config.hpp"
#include "graph/graph.hpp"
#include "sketch/cdg_sketch.hpp"
#include "sketch/graceful_sketch.hpp"
#include "sketch/slack_sketch.hpp"
#include "sketch/tz_label.hpp"

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

}  // namespace dsketch
