#include "graph/graph_io.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "graph/graph_builder.h"
#include "util/random.h"

namespace simgraph {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(GraphIoTest, RoundTripUnweighted) {
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(3, 0);
  const Digraph g = b.Build();
  const std::string path = TempPath("unweighted.txt");
  ASSERT_TRUE(WriteEdgeList(g, path).ok());
  StatusOr<Digraph> loaded = ReadEdgeList(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_nodes(), 4);
  EXPECT_EQ(loaded->num_edges(), 3);
  EXPECT_TRUE(loaded->HasEdge(0, 1));
  EXPECT_TRUE(loaded->HasEdge(3, 0));
  EXPECT_FALSE(loaded->has_weights());
  std::remove(path.c_str());
}

TEST(GraphIoTest, RoundTripWeighted) {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 0.125);
  b.AddEdge(1, 2, 0.5);
  const Digraph g = b.Build(/*weighted=*/true);
  const std::string path = TempPath("weighted.txt");
  ASSERT_TRUE(WriteEdgeList(g, path).ok());
  StatusOr<Digraph> loaded = ReadEdgeList(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded->has_weights());
  EXPECT_DOUBLE_EQ(loaded->EdgeWeight(0, 1), 0.125);
  EXPECT_DOUBLE_EQ(loaded->EdgeWeight(1, 2), 0.5);
  std::remove(path.c_str());
}

TEST(GraphIoTest, MissingFileIsIoError) {
  StatusOr<Digraph> loaded = ReadEdgeList("/nonexistent/dir/graph.txt");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(GraphIoTest, MalformedHeaderRejected) {
  const std::string path = TempPath("bad_header.txt");
  {
    std::ofstream out(path);
    out << "not a header\n";
  }
  StatusOr<Digraph> loaded = ReadEdgeList(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(GraphIoTest, TruncatedEdgeListRejected) {
  const std::string path = TempPath("truncated.txt");
  {
    std::ofstream out(path);
    out << "3 2 0\n0 1\n";  // second edge missing
  }
  StatusOr<Digraph> loaded = ReadEdgeList(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(GraphIoTest, InvalidEdgeRejected) {
  const std::string path = TempPath("invalid_edge.txt");
  {
    std::ofstream out(path);
    out << "2 1 0\n0 5\n";  // node 5 out of range
  }
  StatusOr<Digraph> loaded = ReadEdgeList(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(GraphIoTest, SelfLoopRejected) {
  const std::string path = TempPath("self_loop.txt");
  {
    std::ofstream out(path);
    out << "2 1 0\n1 1\n";
  }
  StatusOr<Digraph> loaded = ReadEdgeList(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(GraphIoTest, EmptyGraphRoundTrips) {
  GraphBuilder b(0);
  const Digraph g = b.Build();
  const std::string path = TempPath("empty.txt");
  ASSERT_TRUE(WriteEdgeList(g, path).ok());
  StatusOr<Digraph> loaded = ReadEdgeList(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_nodes(), 0);
  std::remove(path.c_str());
}

TEST(GraphIoTest, DuplicateEdgesCollapseOnLoad) {
  // Real crawl dumps repeat edges; the loader must fold them into one
  // CSR entry rather than inflating degrees.
  const std::string path = TempPath("duplicates.txt");
  {
    std::ofstream out(path);
    out << "3 4 0\n0 1\n0 1\n1 2\n0 1\n";
  }
  StatusOr<Digraph> loaded = ReadEdgeList(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_edges(), 2);
  EXPECT_EQ(loaded->OutDegree(0), 1);
  EXPECT_TRUE(loaded->HasEdge(0, 1));
  EXPECT_TRUE(loaded->HasEdge(1, 2));
  std::remove(path.c_str());
}

TEST(GraphIoTest, DuplicateWeightedEdgeKeepsLastWeight) {
  const std::string path = TempPath("dup_weighted.txt");
  {
    std::ofstream out(path);
    out << "2 2 1\n0 1 0.25\n0 1 0.75\n";
  }
  StatusOr<Digraph> loaded = ReadEdgeList(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_edges(), 1);
  EXPECT_DOUBLE_EQ(loaded->EdgeWeight(0, 1), 0.75);
  std::remove(path.c_str());
}

TEST(GraphIoTest, HostileInputRoundTripsToCanonicalForm) {
  // Loading a messy file and re-writing it must converge: the second
  // write is byte-identical to the first (the canonical form is a fixed
  // point of load->write).
  const std::string path = TempPath("messy.txt");
  {
    std::ofstream out(path);
    out << "4 5 0\n3 0\n0 1\n0 1\n2 3\n1 2\n";
  }
  StatusOr<Digraph> first = ReadEdgeList(path);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const std::string canonical = TempPath("canonical.txt");
  ASSERT_TRUE(WriteEdgeList(*first, canonical).ok());
  StatusOr<Digraph> second = ReadEdgeList(canonical);
  ASSERT_TRUE(second.ok());
  const std::string canonical2 = TempPath("canonical2.txt");
  ASSERT_TRUE(WriteEdgeList(*second, canonical2).ok());
  std::ifstream a(canonical), b(canonical2);
  std::string text_a((std::istreambuf_iterator<char>(a)),
                     std::istreambuf_iterator<char>());
  std::string text_b((std::istreambuf_iterator<char>(b)),
                     std::istreambuf_iterator<char>());
  EXPECT_EQ(text_a, text_b);
  EXPECT_EQ(second->num_edges(), 4);
  std::remove(path.c_str());
  std::remove(canonical.c_str());
  std::remove(canonical2.c_str());
}

TEST(GraphIoTest, OverflowingNodeIdRejected) {
  // An id that does not fit in int64 sets failbit mid-parse; the loader
  // must surface that as an error, not wrap around into a valid id.
  const std::string path = TempPath("overflow_id.txt");
  {
    std::ofstream out(path);
    out << "3 1 0\n0 99999999999999999999999\n";
  }
  StatusOr<Digraph> loaded = ReadEdgeList(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(GraphIoTest, OverflowingHeaderRejected) {
  const std::string path = TempPath("overflow_header.txt");
  {
    std::ofstream out(path);
    out << "99999999999999999999999 0 0\n";
  }
  StatusOr<Digraph> loaded = ReadEdgeList(path);
  ASSERT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(GraphIoTest, NegativeNodeIdRejected) {
  const std::string path = TempPath("negative_id.txt");
  {
    std::ofstream out(path);
    out << "3 1 0\n-1 2\n";
  }
  StatusOr<Digraph> loaded = ReadEdgeList(path);
  ASSERT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(GraphIoTest, MissingWeightColumnRejected) {
  const std::string path = TempPath("missing_weight.txt");
  {
    std::ofstream out(path);
    out << "2 1 1\n0 1\n";  // weighted header, no weight column
  }
  StatusOr<Digraph> loaded = ReadEdgeList(path);
  ASSERT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(GraphIoTest, EdgeCountBeyondFileRejected) {
  const std::string path = TempPath("short_count.txt");
  {
    std::ofstream out(path);
    out << "3 100 0\n0 1\n";  // header promises 100 edges, file has 1
  }
  StatusOr<Digraph> loaded = ReadEdgeList(path);
  ASSERT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

// Writes `contents` to a temp file named `name` and reads it back as an
// edge list.
StatusOr<Digraph> ReadEdgeListText(const std::string& name,
                                   const std::string& contents) {
  const std::string path = TempPath(name);
  {
    std::ofstream out(path, std::ios::binary);
    out << contents;
  }
  StatusOr<Digraph> loaded = ReadEdgeList(path);
  std::remove(path.c_str());
  return loaded;
}

TEST(GraphIoTest, NonNumericTokenIsIoError) {
  for (const std::string text :
       {"3 1 0\n0 abc\n", "3 1 0\n0 1x\n", "3 x 0\n", "3 1 0\n0 0x1\n"}) {
    const StatusOr<Digraph> loaded = ReadEdgeListText("non_numeric.txt", text);
    ASSERT_FALSE(loaded.ok()) << text;
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError) << text;
  }
}

TEST(GraphIoTest, TrailingPartialRecordIsIoError) {
  // The last record stops after its source id.
  const StatusOr<Digraph> unweighted =
      ReadEdgeListText("partial.txt", "3 2 0\n0 1\n2");
  ASSERT_FALSE(unweighted.ok());
  EXPECT_EQ(unweighted.status().code(), StatusCode::kIoError);
  const StatusOr<Digraph> weighted =
      ReadEdgeListText("partial_w.txt", "3 2 1\n0 1 0.5\n1 2");
  ASSERT_FALSE(weighted.ok());
  EXPECT_EQ(weighted.status().code(), StatusCode::kIoError);
}

TEST(GraphIoTest, NonFiniteWeightIsIoError) {
  for (const std::string weight : {"nan", "NaN", "-nan", "inf", "-inf",
                                   "infinity", "1e999"}) {
    const StatusOr<Digraph> loaded =
        ReadEdgeListText("non_finite.txt", "2 1 1\n0 1 " + weight + "\n");
    ASSERT_FALSE(loaded.ok()) << weight;
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError) << weight;
  }
}

TEST(GraphIoTest, LeadingPlusSignIsIoError) {
  // Fields parse with std::from_chars, which takes no '+' sign.
  const StatusOr<Digraph> loaded =
      ReadEdgeListText("plus.txt", "3 1 0\n+0 1\n");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(GraphIoTest, CrlfLineEndingsLoad) {
  const StatusOr<Digraph> loaded = ReadEdgeListText(
      "crlf.txt", "3 3 1\r\n0 1 0.25\r\n1 2 0.5\r\n2 0 1e-3\r\n");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_edges(), 3);
  EXPECT_EQ(loaded->EdgeWeight(0, 1), 0.25);
  EXPECT_EQ(loaded->EdgeWeight(1, 2), 0.5);
  EXPECT_EQ(loaded->EdgeWeight(2, 0), 1e-3);
}

TEST(BinaryGraphIoTest, RoundTripUnweighted) {
  GraphBuilder b(5);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(4, 0);
  const Digraph g = b.Build();
  const std::string path = TempPath("bin_unweighted.sg");
  ASSERT_TRUE(WriteBinaryGraph(g, path).ok());
  StatusOr<Digraph> loaded = ReadBinaryGraph(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_nodes(), 5);
  EXPECT_EQ(loaded->num_edges(), 3);
  EXPECT_TRUE(loaded->HasEdge(4, 0));
  EXPECT_FALSE(loaded->has_weights());
  std::remove(path.c_str());
}

TEST(BinaryGraphIoTest, RoundTripWeightedExactly) {
  GraphBuilder b(4);
  b.AddEdge(0, 1, 0.123456789012345);
  b.AddEdge(2, 3, 1e-9);
  const Digraph g = b.Build(/*weighted=*/true);
  const std::string path = TempPath("bin_weighted.sg");
  ASSERT_TRUE(WriteBinaryGraph(g, path).ok());
  StatusOr<Digraph> loaded = ReadBinaryGraph(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // Binary round trip preserves doubles bit-for-bit.
  EXPECT_EQ(loaded->EdgeWeight(0, 1), 0.123456789012345);
  EXPECT_EQ(loaded->EdgeWeight(2, 3), 1e-9);
  std::remove(path.c_str());
}

TEST(BinaryGraphIoTest, RejectsWrongMagic) {
  const std::string path = TempPath("bad_magic.sg");
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTAGRAPHFILE.........";
  }
  StatusOr<Digraph> loaded = ReadBinaryGraph(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("magic"), std::string::npos);
  std::remove(path.c_str());
}

TEST(BinaryGraphIoTest, RejectsTruncatedFile) {
  GraphBuilder b(100);
  for (NodeId i = 0; i < 99; ++i) b.AddEdge(i, i + 1);
  const Digraph g = b.Build();
  const std::string path = TempPath("truncated.sg");
  ASSERT_TRUE(WriteBinaryGraph(g, path).ok());
  // Truncate the file to half its size.
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) / 2);
  StatusOr<Digraph> loaded = ReadBinaryGraph(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(BinaryGraphIoTest, LargeGraphRoundTrip) {
  Rng rng(5);
  GraphBuilder b(2000);
  for (int i = 0; i < 20000; ++i) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(2000));
    const NodeId v = static_cast<NodeId>(rng.NextBounded(2000));
    if (u != v) b.AddEdge(u, v, rng.NextDouble());
  }
  const Digraph g = b.Build(true);
  const std::string path = TempPath("large.sg");
  ASSERT_TRUE(WriteBinaryGraph(g, path).ok());
  StatusOr<Digraph> loaded = ReadBinaryGraph(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->num_edges(), g.num_edges());
  for (NodeId u = 0; u < g.num_nodes(); u += 37) {
    const auto a = g.OutNeighbors(u);
    const auto c = loaded->OutNeighbors(u);
    ASSERT_EQ(a.size(), c.size());
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], c[i]);
      ASSERT_EQ(g.OutWeights(u)[i], loaded->OutWeights(u)[i]);
    }
  }
  std::remove(path.c_str());
}

TEST(BinaryGraphIoTest, RejectsForgedHeaderCounts) {
  // A forged num_edges far beyond what the file could hold must fail
  // cleanly, not attempt a multi-exabyte vector resize.
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  const Digraph g = b.Build();
  const std::string path = TempPath("forged_header.sg");
  ASSERT_TRUE(WriteBinaryGraph(g, path).ok());
  {
    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(8 + 8);  // magic + num_nodes
    const int64_t absurd = int64_t{1} << 60;
    f.write(reinterpret_cast<const char*>(&absurd), sizeof(absurd));
  }
  StatusOr<Digraph> loaded = ReadBinaryGraph(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(BinaryGraphIoTest, RejectsForgedSectionLength) {
  // Same idea one level down: a forged per-section length prefix is
  // capped by the header counts instead of trusted.
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  const Digraph g = b.Build();
  const std::string path = TempPath("forged_section.sg");
  ASSERT_TRUE(WriteBinaryGraph(g, path).ok());
  {
    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(8 + 8 + 8 + 1);  // magic + nodes + edges + weighted flag
    const int64_t absurd = int64_t{1} << 59;  // degrees length prefix
    f.write(reinterpret_cast<const char*>(&absurd), sizeof(absurd));
  }
  StatusOr<Digraph> loaded = ReadBinaryGraph(path);
  ASSERT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(DotExportTest, EmitsValidDot) {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 0.5);
  b.AddEdge(1, 2, 0.25);
  const Digraph g = b.Build(/*weighted=*/true);
  const std::string path = TempPath("graph.dot");
  ASSERT_TRUE(WriteDot(g, path).ok());
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("digraph simgraph {"), std::string::npos);
  EXPECT_NE(content.find("0 -> 1"), std::string::npos);
  EXPECT_NE(content.find("label=\"0.5\""), std::string::npos);
  EXPECT_NE(content.find("}"), std::string::npos);
  std::remove(path.c_str());
}

TEST(DotExportTest, RefusesHugeGraphs) {
  GraphBuilder b(100);
  for (NodeId u = 0; u < 99; ++u) b.AddEdge(u, u + 1);
  const Digraph g = b.Build();
  const Status s = WriteDot(g, TempPath("huge.dot"), /*max_edges=*/10);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace simgraph

