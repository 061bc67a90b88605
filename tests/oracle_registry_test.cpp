// The registry + polymorphic round-trip contract: every registered
// oracle builds, answers, saves, and reloads through OracleRegistry::load
// to byte-identical answers. Sketch schemes save the v4 store file, the
// baselines a scheme-tagged text envelope.
#include "core/oracle_registry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "baselines/exact_oracle.hpp"
#include "dynamics/incremental.hpp"
#include "graph/generators.hpp"
#include "graph/shortest_paths.hpp"
#include "serve/query_service.hpp"
#include "serve/sketch_store.hpp"
#include "serve/store_format.hpp"
#include "sketch/hierarchy.hpp"
#include "sketch/stretch_eval.hpp"
#include "sketch/tz_centralized.hpp"
#include "sketch/tz_distributed.hpp"
#include "test_paths.hpp"

namespace dsketch {
namespace {

Graph test_graph() { return erdos_renyi(60, 0.1, {1, 9}, 17); }

FlagSet test_flags() {
  return FlagSet({{"k", "2"}, {"epsilon", "0.25"}, {"landmarks", "6"},
                  {"rounds", "8"}, {"samples", "4"}});
}

TEST(OracleRegistry, BuiltinsRegistered) {
  const OracleRegistry& reg = OracleRegistry::instance();
  std::set<std::string> names;
  for (const OracleScheme* s : reg.schemes()) names.insert(s->name);
  for (const char* want :
       {"tz", "slack", "cdg", "graceful", "exact", "landmark", "vivaldi"}) {
    EXPECT_TRUE(names.count(want)) << "missing scheme: " << want;
  }
}

TEST(OracleRegistry, UnknownNameThrowsWithNameList) {
  const Graph g = test_graph();
  try {
    OracleRegistry::instance().build("nope", g, test_flags());
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("nope"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("landmark"), std::string::npos);
  }
}

TEST(OracleRegistry, DuplicateRegistrationThrows) {
  OracleScheme dup;
  dup.name = "tz";
  dup.build = [](const Graph&, const FlagSet&) {
    return std::unique_ptr<DistanceOracle>();
  };
  EXPECT_THROW(OracleRegistry::instance().add(std::move(dup)),
               std::runtime_error);
}

class OracleRegistrySchemes
    : public ::testing::TestWithParam<const char*> {};

TEST_P(OracleRegistrySchemes, BuildsAndAnswersSanely) {
  const Graph g = test_graph();
  const OracleScheme& scheme = OracleRegistry::instance().at(GetParam());
  const auto oracle = scheme.build(g, test_flags());
  ASSERT_NE(oracle, nullptr);
  EXPECT_EQ(oracle->num_nodes(), g.num_nodes());
  EXPECT_EQ(oracle->scheme(), GetParam());
  EXPECT_FALSE(oracle->guarantee().empty());
  EXPECT_GT(oracle->mean_size_words(), 0.0);
  EXPECT_EQ(oracle->query(5, 5), 0u);
  const Capabilities caps = oracle->capabilities();
  // Only a freshly built sketch store has a simulated build behind it.
  const bool sketch = dynamic_cast<const SketchStore*>(oracle.get());
  ASSERT_EQ(oracle->build_cost() != nullptr, sketch);
  if (sketch) {
    EXPECT_GT(oracle->build_cost()->rounds, 0u);
  }
  if (oracle->guarantee() == "exact (stretch 1)") {
    const auto d = dijkstra(g, 3);
    for (NodeId v = 0; v < g.num_nodes(); v += 7) {
      EXPECT_EQ(oracle->query(3, v), d[v]);
    }
  }
  if (caps.supports_paths) {
    // Witnessed-path estimates never undercut the true distance.
    const auto d = dijkstra(g, 1);
    for (NodeId v = 0; v < g.num_nodes(); v += 5) {
      if (v == 1) continue;
      EXPECT_GE(oracle->query(1, v), d[v]) << "pair 1," << v;
    }
  }
}

TEST_P(OracleRegistrySchemes, QueryBatchMatchesQuery) {
  const Graph g = test_graph();
  const auto oracle =
      OracleRegistry::instance().build(GetParam(), g, test_flags());
  std::vector<QueryPair> pairs;
  for (NodeId u = 0; u < g.num_nodes(); u += 4) {
    for (NodeId v = 1; v < g.num_nodes(); v += 7) pairs.emplace_back(u, v);
  }
  std::vector<Dist> batch(pairs.size());
  oracle->query_batch(pairs, batch);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(batch[i], oracle->query(pairs[i].first, pairs[i].second));
  }
}

TEST_P(OracleRegistrySchemes, EnvelopeRoundTripIsByteIdentical) {
  const Graph g = test_graph();
  const OracleScheme& scheme = OracleRegistry::instance().at(GetParam());
  const auto oracle = scheme.build(g, test_flags());

  std::stringstream ss;
  oracle->save(ss);
  const LoadedOracle loaded = OracleRegistry::instance().load(ss);
  EXPECT_EQ(loaded.envelope.scheme, GetParam());
  EXPECT_EQ(loaded.envelope.n, g.num_nodes());
  ASSERT_NE(loaded.oracle, nullptr);
  EXPECT_EQ(loaded.oracle->num_nodes(), oracle->num_nodes());
  EXPECT_EQ(loaded.oracle->scheme(), oracle->scheme());
  for (NodeId u = 0; u < g.num_nodes(); u += 3) {
    for (NodeId v = u; v < g.num_nodes(); v += 4) {
      EXPECT_EQ(loaded.oracle->query(u, v), oracle->query(u, v))
          << "pair " << u << "," << v;
    }
    EXPECT_EQ(loaded.oracle->size_words(u), oracle->size_words(u))
        << "node " << u;
  }
}

TEST_P(OracleRegistrySchemes, ServesThroughQueryService) {
  const Graph g = test_graph();
  const auto oracle =
      OracleRegistry::instance().build(GetParam(), g, test_flags());
  QueryService service(*oracle, {.shards = 4, .threads = 2,
                                 .cache_capacity = 64});
  std::vector<QueryService::Pair> pairs;
  for (NodeId u = 0; u < g.num_nodes(); u += 2) {
    pairs.emplace_back(u, (u * 7 + 3) % g.num_nodes());
  }
  std::vector<Dist> answers(pairs.size());
  service.query_batch(pairs, answers);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(answers[i], oracle->query(pairs[i].first, pairs[i].second));
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, OracleRegistrySchemes,
                         ::testing::Values("tz", "slack", "cdg", "graceful",
                                           "exact", "landmark", "vivaldi"));

/// Saves `oracle` and loads it back through the registry.
LoadedOracle reload(const DistanceOracle& oracle) {
  std::stringstream ss;
  oracle.save(ss);
  return OracleRegistry::instance().load(ss);
}

/// The StoreError a registry load of `bytes` throws; kIo (with a test
/// failure) when it loads or throws anything else.
StoreError load_error(const std::string& bytes) {
  std::stringstream ss(bytes);
  try {
    OracleRegistry::instance().load(ss);
    ADD_FAILURE() << "loaded: " << bytes.substr(0, 40);
  } catch (const StoreCorruptionError& e) {
    return e.kind();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "untyped error: " << e.what();
  }
  return StoreError::kIo;
}

TEST(OracleEnvelope, LegacyPreEpsilonHeaderStillLoads) {
  // Every store sets the header's flag bit, and the parser never reads
  // it. Clear the flag of a slack save and re-seal the header checksum:
  // the file still loads, with the header's epsilon and identical
  // answers.
  const Graph g = test_graph();
  BuildConfig cfg;
  cfg.scheme = Scheme::kSlack;
  cfg.epsilon = 0.25;
  const SketchStore built(g, cfg);
  std::stringstream ss;
  built.save(ss);
  std::string bytes = ss.str();
  // The u32 flags word follows the magic and five u32 header fields; the
  // header checksum covers the header bytes after the magic.
  constexpr std::size_t kFlags = 8 + 5 * 4;
  ASSERT_EQ(static_cast<std::uint8_t>(bytes[kFlags]),
            store_format::kFlagEpsilonKnown);
  bytes[kFlags] = 0;
  std::uint64_t sum = fnv1a64(bytes.data() + 8, store_format::kHeaderBytes);
  for (std::size_t i = 0; i < 8; ++i, sum >>= 8) {
    bytes[8 + store_format::kHeaderBytes + i] = static_cast<char>(sum & 0xff);
  }
  std::stringstream legacy(bytes);

  const LoadedOracle loaded = OracleRegistry::instance().load(legacy);
  EXPECT_EQ(loaded.envelope.epsilon, 0.25);
  EXPECT_EQ(loaded.envelope.scheme, "slack");
  for (NodeId u = 0; u < g.num_nodes(); u += 5) {
    for (NodeId v = u + 1; v < g.num_nodes(); v += 6) {
      EXPECT_EQ(loaded.oracle->query(u, v), built.query(u, v));
    }
  }
}

TEST(OracleEnvelope, FreshSavesAlwaysRecordEpsilon) {
  // Every store sets the header's epsilon flag and records an epsilon:
  // the build's, or 0 for a store packed from a bare TZ label set.
  const Graph g = test_graph();
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), 2, 42);
  std::vector<std::pair<std::unique_ptr<DistanceOracle>, double>> stores;
  stores.emplace_back(std::make_unique<SketchStore>(SketchStore::from_oracle(
                          TzLabelOracle(build_tz_centralized(g, h), 2))),
                      0.0);
  for (const char* name : {"tz", "slack", "cdg", "graceful"}) {
    stores.emplace_back(
        OracleRegistry::instance().build(name, g, test_flags()), 0.25);
  }
  constexpr std::size_t kFlags = 8 + 5 * 4;  // as in the test above
  for (const auto& [store, epsilon] : stores) {
    std::stringstream ss;
    store->save(ss);
    EXPECT_EQ(static_cast<std::uint8_t>(ss.str()[kFlags]),
              store_format::kFlagEpsilonKnown);
    EXPECT_EQ(OracleRegistry::instance().load(ss).envelope.epsilon, epsilon);
  }
}

TEST(OracleEnvelope, SketchSaveIsTheV3File) {
  // What `dsketch build --save` writes (DistanceOracle::save) is the v4
  // store file, byte for byte what save_file writes for the same build.
  const Graph g = test_graph();
  for (const char* name : {"tz", "slack", "cdg", "graceful"}) {
    const auto oracle =
        OracleRegistry::instance().build(name, g, test_flags());
    std::stringstream saved, written;
    oracle->save(saved);
    const SketchStore packed = SketchStore::from_oracle(*oracle);
    packed.write(written);
    EXPECT_EQ(saved.str(), written.str()) << name;
    const TempPath path = unique_temp_path(std::string(name) + ".store");
    packed.save_file(path);
    std::ifstream in(path, std::ios::binary);
    const std::string file((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    EXPECT_EQ(saved.str(), file) << name;
  }
}

TEST(OracleEnvelope, RejectsInflatedNodeCountHeader) {
  // The v4 header is checksummed: an n that was changed after the save
  // (corruption or a hand edit) must be rejected at load, or the CLI's
  // num_nodes()-based bounds check would wave through queries that index
  // past the loaded records.
  const Graph g = test_graph();
  for (const char* name : {"tz", "slack", "cdg", "graceful"}) {
    const auto oracle =
        OracleRegistry::instance().build(name, g, test_flags());
    std::stringstream ss;
    oracle->save(ss);
    std::string bytes = ss.str();
    // u32 n follows the 8-byte magic, the version and the scheme tag.
    ASSERT_EQ(static_cast<std::uint8_t>(bytes[16]), g.num_nodes());
    bytes[16] = static_cast<char>(g.num_nodes() + 9);
    EXPECT_EQ(load_error(bytes), StoreError::kHeaderChecksum) << name;
  }
}

TEST(OracleEnvelope, TruncatedSketchFileThrowsStoreCorruption) {
  const Graph g = test_graph();
  const auto tz = OracleRegistry::instance().build("tz", g, test_flags());
  std::stringstream ss;
  tz->save(ss);
  const std::string bytes = ss.str();
  for (const std::size_t keep :
       {std::size_t{1}, std::size_t{63}, std::size_t{64}, bytes.size() / 2,
        bytes.size() - 1}) {
    std::stringstream cut(bytes.substr(0, keep));
    EXPECT_THROW(OracleRegistry::instance().load(cut), StoreCorruptionError)
        << keep << " bytes";
  }
}

TEST(OracleEnvelope, TextSketchFilesAreRejectedWithATypedError) {
  // The retired text sketch format: an envelope naming a sketch scheme,
  // or the bare payload without one. Neither may load; both fail typed.
  for (const char* name : {"tz", "slack", "cdg", "graceful"}) {
    EXPECT_EQ(load_error(std::string("scheme ") + name +
                         " 3 2 0.10000000000000001\ndsketch-" + name +
                         "-v1 3\n"),
              StoreError::kUnsupportedVersion)
        << name;
  }
  EXPECT_EQ(load_error("dsketch-tz-v1 2\n0 1\n"), StoreError::kBadMagic);
}

TEST(OracleEnvelope, MalformedHeaderThrows) {
  for (const char* bad : {"", "bogus tz 10 2 0.1\n", "scheme tz\n",
                          "scheme tz 10 2\n", "scheme tz 10 2 junk\n"}) {
    std::stringstream ss(bad);
    EXPECT_THROW(read_envelope_header(ss), std::runtime_error) << bad;
  }
}

TEST(Serialization, TzLabelsRoundTrip) {
  // In-network TZ labels survive save and load record for record.
  const Graph g = erdos_renyi(60, 0.08, {1, 9}, 3);
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), 3, 5);
  const auto r = build_tz_distributed(g, h, TerminationMode::kOracle);
  const LoadedOracle loaded = reload(
      SketchStore::from_oracle(TzLabelOracle(r.labels, 3)));
  const LabelArena& back =
      dynamic_cast<const SketchStore&>(*loaded.oracle).payload().tz;
  ASSERT_EQ(back.num_nodes(), r.labels.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_TRUE(back.view(u) == r.labels.view(u)) << "node " << u;
  }
}

TEST(Serialization, SlackRoundTrip) {
  const Graph g = ring(40, {1, 7}, 2);
  BuildConfig cfg;
  cfg.scheme = Scheme::kSlack;
  cfg.epsilon = 0.25;
  cfg.seed = 5;
  const SketchStore built(g, cfg);
  const LoadedOracle loaded = reload(built);
  const auto& back = dynamic_cast<const SketchStore&>(*loaded.oracle);
  EXPECT_EQ(back.payload().slack.net(), built.payload().slack.net());
  for (NodeId u = 0; u < g.num_nodes(); u += 3) {
    for (NodeId v = u + 1; v < g.num_nodes(); v += 5) {
      EXPECT_EQ(back.query(u, v), built.query(u, v));
    }
  }
}

TEST(Serialization, BadMagicRejected) {
  // Garbage never loads: a stream without the text header's leading 's'
  // is read as a v4 file and fails its magic, typed; one that opens like
  // a text header fails the header parse.
  for (const char* bad : {"", "garbage 5\n"}) {
    EXPECT_EQ(load_error(bad), StoreError::kBadMagic) << bad;
  }
  std::stringstream ss("sketches 1 2 3\n");
  EXPECT_THROW(OracleRegistry::instance().load(ss), std::runtime_error);
}

TEST(Serialization, LoadedEngineRejectsGarbage) {
  // The loaded sketch set is a SketchStore: neither its reader nor the
  // registry's load yields one from a stream that is not a sketch file.
  std::stringstream direct("not a sketch file");
  EXPECT_THROW(SketchStore::read(direct), StoreCorruptionError);
  EXPECT_EQ(load_error("not a sketch file"), StoreError::kBadMagic);
}

TEST(Serialization, HeaderPersistsEpsilonForFlagValidation) {
  const Graph g = ring(30, {1, 4}, 2);
  BuildConfig cfg;
  cfg.scheme = Scheme::kSlack;
  cfg.epsilon = 0.375;
  const LoadedOracle loaded = reload(SketchStore(g, cfg));
  EXPECT_EQ(loaded.envelope.scheme, "slack");
  EXPECT_EQ(loaded.envelope.epsilon, 0.375);
  EXPECT_EQ(loaded.oracle->num_nodes(), g.num_nodes());
  using Flags = std::vector<std::pair<std::string, std::string>>;
  EXPECT_NO_THROW(check_envelope_flags(FlagSet(Flags{{"epsilon", "0.375"}}),
                                       loaded.envelope, "slack.store"));
  EXPECT_THROW(check_envelope_flags(FlagSet(Flags{{"epsilon", "0.25"}}),
                                    loaded.envelope, "slack.store"),
               std::runtime_error);
}

TEST(Serialization, LoadsHeadersWithoutEpsilonField) {
  // A store packed from a bare TZ label set has no build epsilon and
  // records 0. tz takes no --epsilon, so `query --load --epsilon` (its
  // flag check) does not reject the file against that 0.
  const Graph g = test_graph();
  const std::uint32_t k = 3;
  const Hierarchy h = Hierarchy::sample(g.num_nodes(), k, 42);
  const TzLabelOracle labels(build_tz_centralized(g, h), k);
  const LoadedOracle loaded = reload(SketchStore::from_oracle(labels));
  EXPECT_EQ(loaded.envelope.scheme, "tz");
  EXPECT_EQ(loaded.envelope.k, k);
  EXPECT_EQ(loaded.envelope.epsilon, 0.0);
  EXPECT_NO_THROW(check_envelope_flags(
      FlagSet({{"scheme", "tz"}, {"k", "3"}, {"epsilon", "0.3"}}),
      loaded.envelope, "labels.store"));
  for (NodeId u = 0; u < g.num_nodes(); u += 5) {
    for (NodeId v = u + 1; v < g.num_nodes(); v += 6) {
      EXPECT_EQ(loaded.oracle->query(u, v), labels.query(u, v));
    }
  }
}

TEST(SketchStoreOracle, PacksFromOracleAndRejectsBaselines) {
  const Graph g = test_graph();
  const auto tz = OracleRegistry::instance().build("tz", g, test_flags());
  const SketchStore store = SketchStore::from_oracle(*tz);
  EXPECT_EQ(store.num_nodes(), g.num_nodes());
  EXPECT_EQ(store.scheme(), "tz");
  EXPECT_GT(store.mean_size_words(), 0.0);
  for (NodeId u = 0; u < g.num_nodes(); u += 4) {
    for (NodeId v = u; v < g.num_nodes(); v += 5) {
      EXPECT_EQ(store.query(u, v), tz->query(u, v));
    }
  }
  // Re-packing the packed representation is a copy.
  const SketchStore again = SketchStore::from_oracle(store);
  EXPECT_EQ(again.num_nodes(), store.num_nodes());

  const auto landmark =
      OracleRegistry::instance().build("landmark", g, test_flags());
  EXPECT_THROW(SketchStore::from_oracle(*landmark), std::runtime_error);
}

TEST(SketchStoreOracle, LoadOracleRoundTrip) {
  const Graph g = test_graph();
  const auto tz = OracleRegistry::instance().build("tz", g, test_flags());
  const TempPath path = unique_temp_path("store.bin");
  SketchStore::from_oracle(*tz).save_file(path);
  const std::unique_ptr<DistanceOracle> oracle =
      SketchStore::load_oracle(path);
  ASSERT_NE(oracle, nullptr);
  EXPECT_EQ(oracle->scheme(), "tz");
  EXPECT_TRUE(oracle->capabilities().supports_paths);
  for (NodeId u = 0; u < g.num_nodes(); u += 6) {
    for (NodeId v = u; v < g.num_nodes(); v += 7) {
      EXPECT_EQ(oracle->query(u, v), tz->query(u, v));
    }
  }
}

TEST(EvaluateStretchOracle, SkipsPairsWithoutGroundTruth) {
  // Two disconnected rings: cross-component pairs have no finite ground
  // truth, so they must be skipped for every oracle — not scored as
  // stretch est/infinity for Vivaldi nor as "unreachable" noise for the
  // sketches.
  GraphBuilder b(24);
  for (NodeId u = 0; u < 12; ++u) b.add_edge(u, (u + 1) % 12, 2);
  for (NodeId u = 12; u < 24; ++u) {
    b.add_edge(u, u + 1 == 24 ? 12 : u + 1, 2);
  }
  const Graph g = b.build();
  const SampledGroundTruth gt(g, 6, 7);
  const auto exact =
      OracleRegistry::instance().build("exact", g, test_flags());
  const StretchReport r = evaluate_stretch(g, gt, *exact, {});
  EXPECT_GT(r.skipped_no_ground_truth, 0u);
  EXPECT_EQ(r.unreachable, 0u);
  EXPECT_EQ(r.underestimates, 0u);
  EXPECT_DOUBLE_EQ(r.max_stretch(), 1.0);

  // Vivaldi has no path support: without the skip its report would score
  // est/infinity on every cross-component pair. (The embedding itself is
  // still garbage on disconnected graphs — that is the baseline's
  // documented failure mode, not the evaluator's.)
  const auto vivaldi =
      OracleRegistry::instance().build("vivaldi", g, test_flags());
  const StretchReport rv = evaluate_stretch(g, gt, *vivaldi, {});
  EXPECT_EQ(rv.skipped_no_ground_truth, r.skipped_no_ground_truth);
  EXPECT_TRUE(std::isfinite(rv.max_stretch()));
}

}  // namespace
}  // namespace dsketch
