// The label plane of one built sketch set, any of the four families, and
// the construction that fills it.
//
// SketchPayload is the one layout of a build's sketches: one packed
// record per node per store segment (sketch/record_slab), in memory and on
// disk alike. The sketch set (serve/sketch_store) holds one whether it was
// built, loaded or mapped; a loaded or mapped store's slabs share the
// file's bytes, and a copied payload shares its source's. Every
// representation therefore answers through the same per-scheme query
// functions over views of those records: tz_query, slack_query and
// cdg_query.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "congest/accounting.hpp"
#include "core/config.hpp"
#include "core/oracle.hpp"
#include "graph/graph.hpp"
#include "sketch/cdg_sketch.hpp"
#include "sketch/graceful_sketch.hpp"
#include "sketch/record_slab.hpp"
#include "sketch/slack_sketch.hpp"
#include "sketch/tz_label.hpp"
#include "util/flags.hpp"

namespace dsketch {

/// Exactly one of the four sets is populated, per `scheme`.
struct SketchPayload {
  /// The payload over one record slab per store segment (the slabs of a
  /// loaded or mapped store file). `k` is the tz labels' level count;
  /// `slack_net` the slack net.
  static SketchPayload from_segments(Scheme scheme, std::uint32_t k,
                                     std::vector<NodeId> slack_net,
                                     std::vector<RecordSlab> segments);

  Scheme scheme = Scheme::kThorupZwick;
  LabelArena tz;
  SlackSketchSet slack;
  CdgSketchSet cdg;
  GracefulSketchSet graceful;

  /// Distance estimate from the two nodes' sketches only.
  Dist query(NodeId u, NodeId v) const;

  /// out[i] = query(pairs[i]) for every i, with the records of later
  /// pairs prefetched while earlier ones merge. DS_CHECKs that every id
  /// is a node of the payload and that out.size() == pairs.size().
  void query_batch(std::span<const QueryPair> pairs,
                   std::span<Dist> out) const;

  /// Words stored at node u, in the paper's accounting (2 words per
  /// pivot, bunch entry, net distance, and CDG net link).
  std::size_t size_words(NodeId u) const;

  /// Store segments: one per graceful level, one for the other schemes.
  std::size_t num_segments() const;

  /// The records of store segment `s`.
  const RecordSlab& segment(std::size_t s) const;

  /// True when `record` (size bytes, 8 readable past it) is a well-formed
  /// record of this payload's scheme — what a checked load requires of
  /// every record. Slack rows hold `slack_net_size` distances.
  static bool valid_record(Scheme scheme, const std::uint8_t* record,
                           std::size_t size, std::size_t slack_net_size);
  /// Appends to `records` the record a quarantined node serves in
  /// `scheme`: every query against it answers kInfDist ("don't know"),
  /// never a wrong distance.
  static void append_empty_record(Scheme scheme, RecordSlabWriter& records);
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
/// flags once, identically. Throws std::runtime_error naming the flag for
/// --k outside [1, 255], --epsilon outside (0, 1], or a negative --async
/// or --sim-threads.
BuildConfig sketch_build_config(Scheme scheme, const FlagSet& flags);

/// Worst-case guarantee string for a sketch family with parameters
/// filled in.
std::string sketch_guarantee(Scheme scheme, std::uint32_t k, double epsilon);

/// Capabilities of a sketch family (sketch_guarantee() states its
/// stretch).
Capabilities sketch_capabilities(Scheme scheme);

}  // namespace dsketch
