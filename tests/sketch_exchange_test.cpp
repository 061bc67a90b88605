#include <gtest/gtest.h>

#include "congest/sketch_exchange.hpp"
#include "graph/generators.hpp"
#include "graph/shortest_paths.hpp"
#include "sketch/cdg_sketch.hpp"
#include "sketch/hierarchy.hpp"
#include "sketch/tz_distributed.hpp"

namespace dsketch {
namespace {

std::vector<Word> test_payload(std::size_t n) {
  std::vector<Word> words;
  for (std::size_t i = 0; i < n; ++i) words.push_back(1000 + i);
  return words;
}

TEST(SketchExchange, DeliversPayloadIntact) {
  const Graph g = erdos_renyi(100, 0.05, {1, 9}, 3);
  const auto payload = test_payload(37);
  const auto r = exchange_sketch(g, 5, 80, payload);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.words, payload);
}

TEST(SketchExchange, OddAndEvenPayloadSizes) {
  const Graph g = ring(24, {1, 1}, 0);
  for (const std::size_t size : {0u, 1u, 2u, 3u, 16u, 17u}) {
    const auto payload = test_payload(size);
    const auto r = exchange_sketch(g, 0, 12, payload);
    EXPECT_TRUE(r.complete) << "size " << size;
    EXPECT_EQ(r.words, payload) << "size " << size;
  }
}

TEST(SketchExchange, SelfQuery) {
  const Graph g = ring(8, {1, 1}, 0);
  const auto payload = test_payload(9);
  const auto r = exchange_sketch(g, 3, 3, payload);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.words, payload);
}

TEST(SketchExchange, RoundsScaleWithHopsPlusWords) {
  // Path graph: request travels hop(u,v), reply streams back pipelined.
  const Graph g = path(60, {1, 1}, 0);
  const auto payload = test_payload(40);
  const auto r = exchange_sketch(g, 0, 59, payload);
  EXPECT_TRUE(r.complete);
  // 59 hops out + 59 hops back for the first chunk + ~20 chunks pipelined.
  EXPECT_GE(r.stats.rounds, 118u);
  EXPECT_LE(r.stats.rounds, 118u + 25u);
}

TEST(SketchExchange, CheapInRoundsOnHighSGraph) {
  // The point of E8: exchanging a sketch is O(D + words) rounds even when
  // S is huge.
  const Graph g = ring_with_chords(256, 512, 1, 60000, 7);
  const std::uint32_t S = shortest_path_diameter_estimate(g, 4, 1);
  const auto payload = test_payload(30);
  const auto r = exchange_sketch(g, 0, 128, payload);
  EXPECT_TRUE(r.complete);
  EXPECT_LT(r.stats.rounds, static_cast<std::uint64_t>(S));
}

TEST(SketchExchange, WorksUnderAsynchrony) {
  const Graph g = erdos_renyi(80, 0.06, {1, 5}, 9);
  const auto payload = test_payload(25);
  SimConfig cfg;
  cfg.async_max_delay = 5;
  const auto r = exchange_sketch(g, 2, 70, payload, cfg);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.words, payload);
}

TEST(SketchExchange, AdjacentNodes) {
  const Graph g = path(2, {7, 7}, 0);
  const auto payload = test_payload(5);
  const auto r = exchange_sketch(g, 0, 1, payload);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.words, payload);
  // 1 hop request + pipelined reply: a handful of rounds.
  EXPECT_LE(r.stats.rounds, 10u);
}

TEST(SketchExchange, LargePayloadPipelines) {
  const Graph g = path(20, {1, 1}, 0);
  const auto payload = test_payload(400);  // 200 chunks
  const auto r = exchange_sketch(g, 0, 19, payload);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.words, payload);
  // Pipelining: 19 out + 19 back + ~200 chunks, NOT 19 * 200.
  EXPECT_LE(r.stats.rounds, 19u + 19u + 210u);
}

TEST(SketchExchange, CountsAreStableForAFixedPayload) {
  // The reply is one word stream (congest/word_stream): for a fixed
  // graph and payload the messages, words and rounds are the recorded
  // ones, whatever code frames and reassembles the stream.
  const Graph g = erdos_renyi(100, 0.05, {1, 9}, 3);
  struct Pinned {
    std::size_t payload_words;
    std::uint64_t rounds, messages, words;
  };
  for (const Pinned& p : {Pinned{0, 7, 670, 2007}, Pinned{1, 8, 673, 2019},
                          Pinned{37, 26, 727, 2235},
                          Pinned{400, 207, 1270, 4407}}) {
    const auto r = exchange_sketch(g, 5, 80, test_payload(p.payload_words));
    ASSERT_TRUE(r.complete) << p.payload_words << " words";
    EXPECT_EQ(r.stats.rounds, p.rounds) << p.payload_words << " words";
    EXPECT_EQ(r.stats.messages, p.messages) << p.payload_words << " words";
    EXPECT_EQ(r.stats.words, p.words) << p.payload_words << " words";
  }
}

TEST(SketchExchange, EndToEndWithRealLabel) {
  // Fetch a real TZ label across the network and verify the peer can run
  // the distance query with it.
  const Graph g = erdos_renyi(90, 0.06, {1, 9}, 11);
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), 3, 5);
  const auto built = build_tz_distributed(g, h, TerminationMode::kOracle);
  const NodeId u = 4, v = 77;
  const auto r = exchange_sketch(g, u, v, serialize_label(built.labels.view(v)));
  ASSERT_TRUE(r.complete);
  const TzLabelBuilder fetched = deserialize_label(v, r.words);
  EXPECT_EQ(tz_query(built.labels.view(u), fetched.view()),
            tz_query(built.labels.view(u), built.labels.view(v)));
}

}  // namespace
}  // namespace dsketch
