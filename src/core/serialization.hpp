// Sketch persistence: text serialization of every sketch family.
//
// §1's motivation is that preprocessing is paid once and queried many
// times; a deployment therefore wants to persist sketches between runs
// (and ship them to query frontends). The format is line-oriented text,
// versioned, with one record per node.
#pragma once

#include <iosfwd>
#include <vector>

#include "core/sketch_payload.hpp"
#include "sketch/cdg_sketch.hpp"
#include "sketch/graceful_sketch.hpp"
#include "sketch/slack_sketch.hpp"
#include "sketch/tz_label.hpp"

namespace dsketch {

void write_tz_labels(std::ostream& out, const LabelArena& labels);
LabelArena read_tz_labels(std::istream& in);

void write_slack_sketches(std::ostream& out, const SlackSketchSet& set,
                          NodeId n);
SlackSketchSet read_slack_sketches(std::istream& in);

void write_cdg_sketches(std::ostream& out, const CdgSketchSet& set, NodeId n);
CdgSketchSet read_cdg_sketches(std::istream& in);

void write_graceful_sketches(std::ostream& out, const GracefulSketchSet& set,
                             NodeId n);
GracefulSketchSet read_graceful_sketches(std::istream& in);

/// The payload's scheme-specific text (what an envelope carries after its
/// header line); n is the node count the slack/cdg headers record.
void write_sketch_payload(std::ostream& out, const SketchPayload& payload,
                          NodeId n);
SketchPayload read_sketch_payload(std::istream& in, Scheme scheme);

}  // namespace dsketch
