#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "exp/corpus_cache.hpp"
#include "exp/manifest.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "graph/graph_io.hpp"
#include "test_paths.hpp"

namespace dsketch::exp {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test, removed at scope exit.
TempPath scratch(const std::string& name) {
  TempPath dir = unique_temp_path(name);
  fs::create_directories(dir.str());
  return dir;
}

TEST(JsonLines, ParsesFlatObjects) {
  JsonObject object;
  ASSERT_TRUE(parse_json_line(
      R"({"experiment":"e1","table":"t","n":256,"x":1.5,"ok":true})",
      object));
  ASSERT_EQ(object.size(), 5u);
  EXPECT_EQ(json_value(object, "experiment"), "e1");
  EXPECT_EQ(json_value(object, "n"), "256");
  EXPECT_EQ(json_value(object, "x"), "1.5");
  EXPECT_EQ(json_value(object, "ok"), "true");
  EXPECT_EQ(json_value(object, "missing"), "");

  ASSERT_TRUE(parse_json_line(R"({"s":"a \"quoted\" \\ value"})", object));
  EXPECT_EQ(json_value(object, "s"), "a \"quoted\" \\ value");

  ASSERT_TRUE(parse_json_line("{}", object));
  EXPECT_TRUE(object.empty());
}

TEST(JsonLines, RejectsMalformedInput) {
  JsonObject object;
  EXPECT_FALSE(parse_json_line("", object));
  EXPECT_FALSE(parse_json_line("not json", object));
  EXPECT_FALSE(parse_json_line(R"({"k":1)", object));
  EXPECT_FALSE(parse_json_line(R"({"k" 1})", object));
  EXPECT_FALSE(parse_json_line(R"({"k":"unterminated})", object));
}

TEST(CorpusCache, ContentAddressingReusesAndRegenerates) {
  const TempPath scratch_dir = scratch("corpus");
  const fs::path dir = scratch_dir.str();
  GraphSpec spec;
  spec.name = "ring64";
  spec.params = {{"topology", "ring"}, {"n", "64"}};

  const std::string path = ensure_graph(spec, dir.string());
  ASSERT_TRUE(fs::exists(path));
  const Graph g = read_graph_file(path);
  EXPECT_EQ(g.num_nodes(), 64u);

  // Same spec: same path, and the cached file is reused as-is.
  const auto first_write = fs::last_write_time(path);
  EXPECT_EQ(ensure_graph(spec, dir.string()), path);
  EXPECT_EQ(fs::last_write_time(path), first_write);

  // Different parameters address a different file.
  GraphSpec bigger = spec;
  bigger.params[1].second = "128";
  const std::string other = ensure_graph(bigger, dir.string());
  EXPECT_NE(other, path);
  EXPECT_EQ(read_graph_file(other).num_nodes(), 128u);

  // A corrupted cache entry is detected and regenerated.
  { std::ofstream(path) << "garbage\n"; }
  EXPECT_EQ(ensure_graph(spec, dir.string()), path);
  EXPECT_EQ(read_graph_file(path).num_nodes(), 64u);
}

TEST(CorpusCache, GenerateGraphRejectsUnknownTopology) {
  FlagSet flags(std::vector<std::pair<std::string, std::string>>{
      {"topology", "mobius"}});
  EXPECT_THROW(generate_graph(flags), std::runtime_error);
}

Manifest tiny_manifest() {
  return parse_manifest(R"(
name = "tiny"
seed = 3

[corpus.ring64]
topology = "ring"
n = 64

[[cell]]
experiment = "e2"
nmax = 256
kmax = 2

[[cell]]
experiment = "e7"
graph = "ring64"
queries = 200
)");
}

TEST(Runner, RunsResumesAndForces) {
  const TempPath scratch_dir = scratch("runner");
  const fs::path dir = scratch_dir.str();
  RunOptions opts;
  opts.out_dir = dir.string();
  opts.threads = 2;

  const RunSummary first = run_manifest(tiny_manifest(), opts);
  EXPECT_TRUE(first.ok());
  EXPECT_EQ(first.ran, 2u);
  EXPECT_EQ(first.skipped, 0u);
  for (const CellResult& cell : first.cells) {
    EXPECT_TRUE(cell_output_valid(cell.out_path, cell.id)) << cell.out_path;
  }

  // Second run resumes: everything is skipped.
  const RunSummary second = run_manifest(tiny_manifest(), opts);
  EXPECT_EQ(second.ran, 0u);
  EXPECT_EQ(second.skipped, 2u);

  // A truncated artifact is detected and re-run.
  { std::ofstream(first.cells[0].out_path) << "{\"status\":\"start\"}\n"; }
  const RunSummary third = run_manifest(tiny_manifest(), opts);
  EXPECT_EQ(third.ran, 1u);
  EXPECT_EQ(third.skipped, 1u);

  // --force reruns everything.
  opts.force = true;
  const RunSummary fourth = run_manifest(tiny_manifest(), opts);
  EXPECT_EQ(fourth.ran, 2u);
}

TEST(Runner, AloneCellsRunAfterTheRestOneAtATime) {
  // e7 and e12 time themselves and are marked alone; e2 and e10 are not.
  // On four workers every cell could start at once, yet no alone cell may
  // overlap another cell in time.
  const TempPath scratch_dir = scratch("runner_alone");
  const Manifest manifest = parse_manifest(R"(
name = "alone"
seed = 3

[corpus.ring64]
topology = "ring"
n = 64

[[cell]]
experiment = "e2"
nmax = 256
kmax = 2

[[cell]]
experiment = "e7"
graph = "ring64"
queries = 200

[[cell]]
experiment = "e10"

[[cell]]
experiment = "e12"
graph = "ring64"
queries = 2000
threads = "1"
batch = "256"
)");
  RunOptions opts;
  opts.out_dir = scratch_dir.str();
  opts.threads = 4;
  const RunSummary summary = run_manifest(manifest, opts);
  ASSERT_TRUE(summary.ok());
  ASSERT_EQ(summary.ran, 4u);
  const auto overlap = [](const CellResult& a, const CellResult& b) {
    return a.started < b.started + b.seconds &&
           b.started < a.started + a.seconds;
  };
  for (const CellResult& a : summary.cells) {
    if (a.experiment != "e7" && a.experiment != "e12") continue;
    for (const CellResult& b : summary.cells) {
      if (&a == &b) continue;
      EXPECT_FALSE(overlap(a, b))
          << a.experiment << " [" << a.started << ", "
          << a.started + a.seconds << ") overlaps " << b.experiment << " ["
          << b.started << ", " << b.started + b.seconds << ")";
    }
  }
}

TEST(Runner, UnknownExperimentFailsFast) {
  const TempPath scratch_dir = scratch("runner_bad");
  const fs::path dir = scratch_dir.str();
  Manifest m = parse_manifest(
      "name = \"bad\"\n[[cell]]\nexperiment = \"e99\"\n");
  RunOptions opts;
  opts.out_dir = dir.string();
  EXPECT_THROW(run_manifest(m, opts), std::runtime_error);
}

TEST(Runner, CellOutputValidRejectsBadArtifacts) {
  const TempPath scratch_dir = scratch("validate");
  const fs::path dir = scratch_dir.str();
  EXPECT_FALSE(cell_output_valid((dir / "missing.jsonl").string(), "x"));
  const fs::path garbage = dir / "garbage.jsonl";
  { std::ofstream(garbage) << "not json at all\n"; }
  EXPECT_FALSE(cell_output_valid(garbage.string(), "x"));
  const fs::path wrong = dir / "wrong.jsonl";
  { std::ofstream(wrong) << "{\"cell\":\"other\",\"status\":\"ok\"}\n"; }
  EXPECT_FALSE(cell_output_valid(wrong.string(), "x"));
  const fs::path good = dir / "good.jsonl";
  { std::ofstream(good) << "{\"cell\":\"x\",\"status\":\"ok\"}\n"; }
  EXPECT_TRUE(cell_output_valid(good.string(), "x"));
}

TEST(Report, RendersTablesNotesAndCells) {
  const TempPath scratch_dir = scratch("report");
  const fs::path dir = scratch_dir.str();
  RunOptions opts;
  opts.out_dir = dir.string();
  const RunSummary summary = run_manifest(tiny_manifest(), opts);
  ASSERT_TRUE(summary.ok());

  const std::string report = generate_report(dir.string(), "tiny");
  EXPECT_NE(report.find("# Experiment results — tiny"), std::string::npos);
  EXPECT_NE(report.find("## E2"), std::string::npos);
  EXPECT_NE(report.find("## E7"), std::string::npos);
  EXPECT_NE(report.find("### label_words"), std::string::npos);
  EXPECT_NE(report.find("### query_latency"), std::string::npos);
  EXPECT_NE(report.find("| n | k |"), std::string::npos);
  EXPECT_NE(report.find("> Expected shape"), std::string::npos);
  EXPECT_NE(report.find("cells:"), std::string::npos);

  // write_report creates parent directories and the file round-trips.
  const fs::path out = dir / "docs" / "RESULTS.md";
  write_report(dir.string(), "tiny", out.string());
  std::ifstream in(out);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, report);
}

TEST(Report, EmptyOutputDirectoryIsHandled) {
  const TempPath scratch_dir = scratch("report_empty");
  const fs::path dir = scratch_dir.str();
  const std::string report = generate_report(dir.string(), "none");
  EXPECT_NE(report.find("No cell artifacts found"), std::string::npos);
}

}  // namespace
}  // namespace dsketch::exp
