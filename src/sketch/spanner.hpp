// (2k-1)-spanner extraction from the Thorup-Zwick construction [TZ05 §4].
//
// The union over all sources w of the shortest-path trees spanning the
// clusters C(w) is a spanner: a subgraph H with O(k n^{1+1/k}) edges in
// expectation in which d_H(u,v) <= (2k-1) d_G(u,v) for every pair. This is
// the structural counterpart of the sketches — the paper's related-work
// section places spanners next to distance labelings. The trees are read
// off the labels: each node u contributes its next-hop edge toward every
// w in B(u) \ {u} (sketch/path_extraction.hpp), and for each cluster C(w)
// those edges form a shortest-path tree rooted at w.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "sketch/tz_label.hpp"

namespace dsketch {

/// Edges of the spanner subgraph (subset of g's edges, canonical u < v,
/// deduplicated in first-seen order). `labels` are TZ labels of g; a bunch
/// member without a next hop (labels of another graph, a quarantined
/// record) contributes no edge.
std::vector<Edge> extract_spanner(const Graph& g, const LabelArena& labels);

/// Convenience: the spanner as a Graph over the same node set.
Graph spanner_graph(const Graph& g, const LabelArena& labels);

}  // namespace dsketch
