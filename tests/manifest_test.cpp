#include <gtest/gtest.h>

#include <set>

#include "exp/manifest.hpp"

namespace dsketch::exp {
namespace {

const char* kGood = R"(
# A comment line.
name = "demo"
seed = 11

[corpus.er1k]
topology = "er"   # trailing comment
n = 1024
p = 0.008
seed = 42

[corpus.ring_small]
topology = "ring"
n = 64

[[cell]]
experiment = "e7"
graph = "er1k"
queries = 5000

[[cell]]
experiment = "e12"
graph = ["er1k", "ring_small"]
threads = "1,2"
queries = [1000, 2000]
)";

TEST(Manifest, ParsesTheFullShape) {
  const Manifest m = parse_manifest(kGood);
  EXPECT_EQ(m.name, "demo");
  EXPECT_EQ(m.base_seed, 11u);
  ASSERT_EQ(m.corpus.size(), 2u);
  EXPECT_EQ(m.corpus[0].name, "er1k");
  ASSERT_NE(m.find_graph("er1k"), nullptr);
  EXPECT_EQ(m.find_graph("missing"), nullptr);
  ASSERT_EQ(m.cells.size(), 2u);
  EXPECT_EQ(m.cells[0].experiment, "e7");
  // Sweep axes: graph x queries on the second cell.
  ASSERT_EQ(m.cells[1].params.size(), 3u);
}

TEST(Manifest, ExpansionIsTheCrossProduct) {
  const Manifest m = parse_manifest(kGood);
  const std::vector<Cell> cells = expand_cells(m);
  // 1 + (2 graphs x 2 queries) = 5.
  ASSERT_EQ(cells.size(), 5u);
  std::set<std::string> ids;
  for (const Cell& cell : cells) ids.insert(cell.id());
  EXPECT_EQ(ids.size(), cells.size()) << "cell ids must be distinct";
  for (const Cell& cell : cells) {
    EXPECT_EQ(cell.id().rfind(cell.experiment + "-", 0), 0u);
  }
}

TEST(Manifest, CellIdIgnoresParamOrder) {
  Cell a, b;
  a.experiment = b.experiment = "e7";
  a.params = {{"n", "64"}, {"queries", "10"}};
  b.params = {{"n", "64"}, {"queries", "10"}};
  EXPECT_EQ(a.id(), b.id());
  b.params = {{"n", "65"}, {"queries", "10"}};
  EXPECT_NE(a.id(), b.id());
}

TEST(Manifest, DuplicateCellsCollapse) {
  const Manifest m = parse_manifest(R"(
name = "dups"
[[cell]]
experiment = "e2"
nmax = [256, 256]
)");
  EXPECT_EQ(expand_cells(m).size(), 1u);
}

TEST(Manifest, QuotedStringsUnescapeAndRoundTrip) {
  const Manifest m = parse_manifest(
      "name = \"with \\\"quotes\\\" and \\\\slash\"\n"
      "[[cell]]\nexperiment = \"e1\"\n");
  EXPECT_EQ(m.name, "with \"quotes\" and \\slash");
}

TEST(Manifest, RejectsBadInput) {
  // Missing required fields.
  EXPECT_THROW(parse_manifest("[[cell]]\nexperiment = \"e1\"\n"),
               std::runtime_error);  // no name
  EXPECT_THROW(parse_manifest("name = \"x\"\n"), std::runtime_error);
  EXPECT_THROW(parse_manifest("name = \"x\"\n[[cell]]\nn = 4\n"),
               std::runtime_error);  // cell without experiment
  EXPECT_THROW(
      parse_manifest("name = \"x\"\n[corpus.g]\nn = 4\n"
                     "[[cell]]\nexperiment = \"e1\"\n"),
      std::runtime_error);  // corpus entry without topology

  // Unknown keys fail loudly.
  EXPECT_THROW(parse_manifest("name = \"x\"\nbogus = 1\n"),
               std::runtime_error);
  EXPECT_THROW(
      parse_manifest("name = \"x\"\n[corpus.g]\ntopology = \"er\"\n"
                     "colour = 3\n[[cell]]\nexperiment = \"e1\"\n"),
      std::runtime_error);
  EXPECT_THROW(
      parse_manifest("name = \"x\"\n[[cell]]\nexperiment = \"e1\"\n"
                     "typo_knob = 7\n"),
      std::runtime_error);

  // Structural errors.
  EXPECT_THROW(parse_manifest("name = \"x\"\n[weird]\n"), std::runtime_error);
  EXPECT_THROW(parse_manifest("name = \"x\"\njust a line\n"),
               std::runtime_error);
  EXPECT_THROW(parse_manifest("name = \"unterminated\n"), std::runtime_error);
  EXPECT_THROW(
      parse_manifest("name = \"x\"\n[[cell]]\nexperiment = \"e1\"\n"
                     "queries = [1, 2\n"),
      std::runtime_error);
  EXPECT_THROW(
      parse_manifest("name = \"x\"\n[[cell]]\nexperiment = \"e1\"\n"
                     "queries = []\n"),
      std::runtime_error);
  EXPECT_THROW(
      parse_manifest("name = \"x\"\n[[cell]]\nexperiment = \"e1\"\n"
                     "queries = not_a_value\n"),
      std::runtime_error);
  EXPECT_THROW(
      parse_manifest("name = \"x\"\n[[cell]]\nexperiment = \"e1\"\n"
                     "queries =\n"),
      std::runtime_error);

  // Duplicates and dangling references.
  EXPECT_THROW(
      parse_manifest("name = \"x\"\n[[cell]]\nexperiment = \"e1\"\n"
                     "n = 1\nn = 2\n"),
      std::runtime_error);
  EXPECT_THROW(
      parse_manifest("name = \"x\"\n[corpus.g]\ntopology = \"er\"\n"
                     "[corpus.g]\ntopology = \"er\"\n"
                     "[[cell]]\nexperiment = \"e1\"\n"),
      std::runtime_error);
  EXPECT_THROW(
      parse_manifest("name = \"x\"\n[[cell]]\nexperiment = \"e1\"\n"
                     "graph = \"nope\"\n"),
      std::runtime_error);
}

TEST(Manifest, ErrorsCarryLineNumbers) {
  try {
    parse_manifest("name = \"x\"\n\n[[cell]]\nexperiment = \"e1\"\n"
                   "bogus_key = 1\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 5"), std::string::npos)
        << e.what();
  }
}

TEST(Manifest, Fnv1a64MatchesReferenceVectors) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(hash_hex(0xdeadbeefULL << 32, 8), "deadbeef");
}

#ifdef DSKETCH_SOURCE_DIR
TEST(Manifest, QuickTomlFileIsHealthy) {
  const Manifest m = load_manifest_file(std::string(DSKETCH_SOURCE_DIR) +
                                        "/bench/manifests/quick.toml");
  EXPECT_EQ(m.name, "quick");
  std::set<std::string> experiments;
  for (const Cell& cell : expand_cells(m)) {
    experiments.insert(cell.experiment);
  }
  // The acceptance bar for the quick grid CI runs: at least four
  // distinct experiments in one invocation.
  EXPECT_GE(experiments.size(), 4u);
}

TEST(Manifest, FullTomlFileParses) {
  const Manifest m = load_manifest_file(std::string(DSKETCH_SOURCE_DIR) +
                                        "/bench/manifests/full.toml");
  std::set<std::string> experiments;
  for (const Cell& cell : expand_cells(m)) {
    experiments.insert(cell.experiment);
  }
  EXPECT_EQ(experiments.size(), 16u) << "full.toml must cover E1..E16";
}
#endif

}  // namespace
}  // namespace dsketch::exp
