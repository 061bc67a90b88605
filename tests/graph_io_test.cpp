#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph_io.hpp"
#include "test_paths.hpp"

namespace dsketch {
namespace {

TEST(GraphIo, RoundTripPreservesStructure) {
  const Graph g = erdos_renyi(50, 0.1, {1, 12}, 21);
  std::stringstream ss;
  write_graph(ss, g);
  const Graph h = read_graph(ss);
  ASSERT_EQ(h.num_nodes(), g.num_nodes());
  ASSERT_EQ(h.num_edges(), g.num_edges());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto a = g.neighbors(u);
    const auto b = h.neighbors(u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].to, b[i].to);
      EXPECT_EQ(a[i].weight, b[i].weight);
    }
  }
}

TEST(GraphIo, SkipsCommentsAndBlankLines) {
  std::stringstream ss("# a comment\n\n3 2\n# another\n0 1 5\n1 2 7\n");
  const Graph g = read_graph(ss);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.neighbors(1).size(), 2u);
}

TEST(GraphIo, RejectsBadHeader) {
  std::stringstream ss("nonsense\n");
  EXPECT_THROW(read_graph(ss), std::runtime_error);
}

TEST(GraphIo, RejectsOutOfRangeEndpoint) {
  std::stringstream ss("2 1\n0 5 1\n");
  EXPECT_THROW(read_graph(ss), std::runtime_error);
}

TEST(GraphIo, RejectsSelfLoop) {
  std::stringstream ss("2 1\n1 1 1\n");
  EXPECT_THROW(read_graph(ss), std::runtime_error);
}

TEST(GraphIo, RejectsCountMismatch) {
  std::stringstream ss("3 2\n0 1 1\n");
  EXPECT_THROW(read_graph(ss), std::runtime_error);
}

TEST(GraphIo, RejectsEmptyInput) {
  std::stringstream ss("");
  EXPECT_THROW(read_graph(ss), std::runtime_error);
}

TEST(GraphIo, FileRoundTrip) {
  const Graph g = ring(16, {2, 9}, 5);
  const TempPath path = unique_temp_path("io.graph");
  write_graph_file(path, g);
  const Graph h = read_graph_file(path);
  EXPECT_EQ(h.num_nodes(), 16u);
  EXPECT_EQ(h.num_edges(), 16u);
}

TEST(GraphIo, MissingFileThrows) {
  EXPECT_THROW(read_graph_file("/nonexistent/definitely/missing.graph"),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// streaming edge-list ingest (SNAP / DIMACS -> CSR, no edge vector)

TEST(Ingest, SnapRemapsSparseIdsFirstSeen) {
  // SNAP-style: '#' comments, sparse ids, no weights (default 1).
  std::stringstream ss(
      "# Directed graph: web-Toy.txt\n"
      "# FromNodeId\tToNodeId\n"
      "9000001\t42\n"
      "42\t7\n"
      "9000001\t7\n");
  IngestStats stats;
  const Graph g = ingest_edge_list(ss, IngestFormat::kSnap, &stats);
  EXPECT_EQ(g.num_nodes(), 3u);  // 9000001 -> 0, 42 -> 1, 7 -> 2
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(stats.edge_lines, 3u);
  EXPECT_EQ(stats.self_loops, 0u);
  ASSERT_EQ(g.neighbors(0).size(), 2u);
  EXPECT_EQ(g.neighbors(0)[0].to, 1u);
  EXPECT_EQ(g.neighbors(0)[0].weight, 1u);
}

TEST(Ingest, SnapCollapsesBothDirectionsAndKeepsMinWeight) {
  // A SNAP file listing both directions of each edge must not double the
  // edge; conflicting weights resolve to the minimum.
  std::stringstream ss("0 1 5\n1 0 3\n0 2 7\n2 0 7\n");
  const Graph g = ingest_edge_list(ss, IngestFormat::kSnap);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  ASSERT_EQ(g.neighbors(0).size(), 2u);
  EXPECT_EQ(g.neighbors(0)[0].weight, 3u);
  EXPECT_EQ(g.neighbors(0)[1].weight, 7u);
}

TEST(Ingest, SnapCountsAndDropsSelfLoops) {
  std::stringstream ss("0 0\n0 1\n5 5\n");
  IngestStats stats;
  const Graph g = ingest_edge_list(ss, IngestFormat::kSnap, &stats);
  EXPECT_EQ(stats.self_loops, 2u);
  EXPECT_EQ(stats.edge_lines, 1u);
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Ingest, DimacsParsesArcsOneIndexed) {
  std::stringstream ss(
      "c 9th DIMACS shortest paths\n"
      "p sp 4 3\n"
      "a 1 2 10\n"
      "a 2 3 20\n"
      "a 4 1 30\n");
  const Graph g = ingest_edge_list(ss, IngestFormat::kDimacs);
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 3u);
  // DIMACS node 1 is the first seen -> dense id 0.
  ASSERT_EQ(g.neighbors(0).size(), 2u);
  EXPECT_EQ(g.neighbors(0)[0].weight, 10u);
}

TEST(Ingest, AutoSniffsEachDialect) {
  std::stringstream dimacs("c comment\np sp 2 1\na 1 2 4\n");
  EXPECT_EQ(ingest_edge_list(dimacs, IngestFormat::kAuto).num_edges(), 1u);
  std::stringstream snap("# comment\n3 4\n");
  const Graph g = ingest_edge_list(snap, IngestFormat::kAuto);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.num_nodes(), 2u);
}

TEST(Ingest, MatchesFromEdgesOnAGeneratedGraph) {
  // Export a generated graph as a SNAP edge list, ingest it back, and
  // require the same CSR the Edge-vector path builds — up to the ingester's
  // first-seen id remap, which the test replays from the edge stream.
  const Graph g = erdos_renyi(60, 0.1, {1, 12}, 31);
  std::stringstream ss;
  std::vector<NodeId> remap(g.num_nodes(), kInvalidNode);
  NodeId next = 0;
  for (const Edge& e : g.edges()) {
    ss << e.u << '\t' << e.v << '\t' << e.weight << '\n';
    if (remap[e.u] == kInvalidNode) remap[e.u] = next++;
    if (remap[e.v] == kInvalidNode) remap[e.v] = next++;
  }
  ASSERT_EQ(next, g.num_nodes()) << "seed left an isolated node";
  const Graph h = ingest_edge_list(ss, IngestFormat::kSnap);
  ASSERT_EQ(h.num_nodes(), g.num_nodes());
  ASSERT_EQ(h.num_edges(), g.num_edges());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto a = g.neighbors(u);
    std::vector<HalfEdge> mapped;
    for (const HalfEdge& he : a) mapped.push_back({remap[he.to], he.weight});
    std::sort(mapped.begin(), mapped.end(),
              [](const HalfEdge& x, const HalfEdge& y) { return x.to < y.to; });
    const auto b = h.neighbors(remap[u]);
    ASSERT_EQ(mapped.size(), b.size()) << "node " << u;
    for (std::size_t i = 0; i < mapped.size(); ++i) {
      EXPECT_EQ(mapped[i].to, b[i].to);
      EXPECT_EQ(mapped[i].weight, b[i].weight);
    }
  }
}

TEST(Ingest, RejectsMalformedInput) {
  {
    std::stringstream ss("0 1 2 3\n");  // four fields
    EXPECT_THROW(ingest_edge_list(ss, IngestFormat::kSnap),
                 std::runtime_error);
  }
  {
    std::stringstream ss("0 abc\n");
    EXPECT_THROW(ingest_edge_list(ss, IngestFormat::kSnap),
                 std::runtime_error);
  }
  {
    std::stringstream ss("a 0 1 5\n");  // DIMACS ids are 1-indexed
    EXPECT_THROW(ingest_edge_list(ss, IngestFormat::kDimacs),
                 std::runtime_error);
  }
  {
    std::stringstream ss("x 1 2 5\n");  // unknown DIMACS line kind
    EXPECT_THROW(ingest_edge_list(ss, IngestFormat::kDimacs),
                 std::runtime_error);
  }
  {
    std::stringstream ss("0 1 4294967296\n");  // weight > 32 bits
    EXPECT_THROW(ingest_edge_list(ss, IngestFormat::kSnap),
                 std::runtime_error);
  }
  {
    std::stringstream ss("# only comments\n\n");
    EXPECT_THROW(ingest_edge_list(ss, IngestFormat::kSnap),
                 std::runtime_error);
  }
}

TEST(Ingest, FileEntryPointAndFormatNames) {
  const TempPath path = unique_temp_path("edges.txt");
  {
    std::ofstream out(path);
    out << "# tiny\n0 1\n1 2\n";
  }
  IngestStats stats;
  const Graph g =
      ingest_edge_list_file(path, parse_ingest_format("auto"), &stats);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(stats.edge_lines, 2u);
  EXPECT_EQ(parse_ingest_format("snap"), IngestFormat::kSnap);
  EXPECT_EQ(parse_ingest_format("dimacs"), IngestFormat::kDimacs);
  EXPECT_THROW(parse_ingest_format("csv"), std::runtime_error);
  EXPECT_THROW(ingest_edge_list_file("/nonexistent/edges.txt",
                                     IngestFormat::kAuto),
               std::runtime_error);
}

}  // namespace
}  // namespace dsketch
