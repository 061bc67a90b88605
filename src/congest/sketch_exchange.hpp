// Query-time sketch exchange (§2.1).
//
// After preprocessing, answering d(u,v) online means u must obtain v's
// sketch (or vice versa). The paper charges this at O(D · sketch-size)
// rounds; in structured overlays where u can contact v directly it drops
// to O(sketch-size). We implement the general-network version faithfully
// so experiment E8 can *measure* it instead of modeling it:
//
//   1. u floods a REQUEST carrying v's id (BFS, <= D rounds; every node
//      remembers the edge the request first arrived on — a parent pointer
//      toward u);
//   2. v answers by streaming its serialized sketch words back along the
//      parent-pointer chain as a word stream (congest/word_stream): 2
//      words per message, pipelined and sequence-numbered (tolerates
//      asynchronous, non-FIFO links);
//   3. u reassembles the sketch. Total: ~2·hop(u,v) + words/2 rounds.
//
// The flood costs O(|E|) messages — that is the price of not having
// routing tables in a bare CONGEST network, and it is still exponentially
// cheaper in *rounds* than the Ω(S) no-preprocessing computation on
// high-S topologies.
#pragma once

#include <cstdint>
#include <vector>

#include "congest/accounting.hpp"
#include "congest/sim.hpp"
#include "graph/graph.hpp"

namespace dsketch {

struct SketchExchangeResult {
  std::vector<Word> words;  ///< v's sketch as received by u
  SimStats stats;
  bool complete = false;
};

/// u requests and receives `payload` (v's serialized sketch) from v.
SketchExchangeResult exchange_sketch(const Graph& g, NodeId requester,
                                     NodeId responder,
                                     const std::vector<Word>& payload,
                                     SimConfig cfg = {});

}  // namespace dsketch
