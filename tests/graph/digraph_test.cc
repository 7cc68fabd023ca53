#include "graph/digraph.h"

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph_builder.h"
#include "util/random.h"

namespace simgraph {
namespace {

TEST(DigraphTest, EmptyGraph) {
  Digraph g;
  EXPECT_EQ(g.num_nodes(), 0);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_FALSE(g.has_weights());
}

TEST(GraphBuilderTest, BuildsAdjacency) {
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(2, 3);
  b.AddEdge(3, 0);
  const Digraph g = b.Build();
  EXPECT_EQ(g.num_nodes(), 4);
  EXPECT_EQ(g.num_edges(), 4);
  ASSERT_EQ(g.OutDegree(0), 2);
  EXPECT_EQ(g.OutNeighbors(0)[0], 1);
  EXPECT_EQ(g.OutNeighbors(0)[1], 2);
  EXPECT_EQ(g.OutDegree(1), 0);
  EXPECT_EQ(g.InDegree(0), 1);
  EXPECT_EQ(g.InNeighbors(0)[0], 3);
  EXPECT_EQ(g.InDegree(3), 1);
}

TEST(GraphBuilderTest, NeighborsAreSorted) {
  GraphBuilder b(5);
  b.AddEdge(0, 4);
  b.AddEdge(0, 1);
  b.AddEdge(0, 3);
  b.AddEdge(0, 2);
  const Digraph g = b.Build();
  const auto nbrs = g.OutNeighbors(0);
  for (size_t i = 1; i < nbrs.size(); ++i) EXPECT_LT(nbrs[i - 1], nbrs[i]);
}

TEST(GraphBuilderTest, InNeighborsAreSorted) {
  GraphBuilder b(5);
  b.AddEdge(4, 0);
  b.AddEdge(1, 0);
  b.AddEdge(3, 0);
  const Digraph g = b.Build();
  const auto nbrs = g.InNeighbors(0);
  ASSERT_EQ(nbrs.size(), 3u);
  for (size_t i = 1; i < nbrs.size(); ++i) EXPECT_LT(nbrs[i - 1], nbrs[i]);
}

TEST(GraphBuilderTest, DeduplicatesEdges) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  const Digraph g = b.Build();
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.OutDegree(0), 2);
  EXPECT_EQ(g.InDegree(1), 1);
}

TEST(GraphBuilderTest, LastWeightWinsOnDuplicates) {
  GraphBuilder b(2);
  b.AddEdge(0, 1, 0.25);
  b.AddEdge(0, 1, 0.75);
  const Digraph g = b.Build(/*weighted=*/true);
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 1), 0.75);
}

TEST(GraphBuilderTest, SortedAndShuffledInputBuildTheSameCsr) {
  // Build skips its sort when the input is already in (src, dst) order.
  // Feeding the same edges shuffled, and in stable (src, dst) order, must
  // give one CSR, and in both the last occurrence of a duplicate wins.
  struct E {
    NodeId src;
    NodeId dst;
    double weight;
  };
  constexpr NodeId kNodes = 50;
  std::vector<E> shuffled;
  Rng rng(7);
  for (int i = 0; i < 600; ++i) {
    const auto src = static_cast<NodeId>(rng.NextBounded(kNodes));
    auto dst = static_cast<NodeId>(rng.NextBounded(kNodes - 1));
    if (dst >= src) ++dst;
    shuffled.push_back(E{src, dst, static_cast<double>(i)});
  }
  std::vector<E> sorted = shuffled;
  std::stable_sort(sorted.begin(), sorted.end(), [](const E& a, const E& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  });
  ASSERT_NE(std::adjacent_find(sorted.begin(), sorted.end(),
                               [](const E& a, const E& b) {
                                 return a.src == b.src && a.dst == b.dst;
                               }),
            sorted.end())
      << "the input must carry duplicates";

  const auto build = [](const std::vector<E>& edges) {
    GraphBuilder b(kNodes);
    for (const E& e : edges) b.AddEdge(e.src, e.dst, e.weight);
    return b.Build(/*weighted=*/true);
  };
  const Digraph from_shuffled = build(shuffled);
  const Digraph from_sorted = build(sorted);

  std::map<std::pair<NodeId, NodeId>, double> last;
  for (const E& e : shuffled) last[{e.src, e.dst}] = e.weight;
  ASSERT_EQ(from_shuffled.num_edges(), static_cast<int64_t>(last.size()));
  ASSERT_EQ(from_sorted.num_edges(), static_cast<int64_t>(last.size()));
  for (NodeId u = 0; u < kNodes; ++u) {
    const auto a = from_shuffled.OutNeighbors(u);
    const auto b = from_sorted.OutNeighbors(u);
    ASSERT_EQ(std::vector<NodeId>(a.begin(), a.end()),
              std::vector<NodeId>(b.begin(), b.end()));
    const auto in_a = from_shuffled.InNeighbors(u);
    const auto in_b = from_sorted.InNeighbors(u);
    ASSERT_EQ(std::vector<NodeId>(in_a.begin(), in_a.end()),
              std::vector<NodeId>(in_b.begin(), in_b.end()));
    for (size_t i = 0; i < a.size(); ++i) {
      const double want = last.at({u, a[i]});
      EXPECT_EQ(from_shuffled.OutWeights(u)[i], want);
      EXPECT_EQ(from_sorted.OutWeights(u)[i], want);
    }
  }
}

TEST(GraphBuilderDeathTest, RejectsSelfLoop) {
  GraphBuilder b(2);
  EXPECT_DEATH(b.AddEdge(1, 1), "self-loops");
}

TEST(GraphBuilderDeathTest, RejectsOutOfRange) {
  GraphBuilder b(2);
  EXPECT_DEATH(b.AddEdge(0, 2), "Check failed");
}

TEST(DigraphTest, HasEdge) {
  GraphBuilder b(4);
  b.AddEdge(0, 2);
  b.AddEdge(1, 3);
  const Digraph g = b.Build();
  EXPECT_TRUE(g.HasEdge(0, 2));
  EXPECT_TRUE(g.HasEdge(1, 3));
  EXPECT_FALSE(g.HasEdge(2, 0));
  EXPECT_FALSE(g.HasEdge(0, 1));
}

TEST(DigraphTest, WeightsParallelNeighbors) {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 0.5);
  b.AddEdge(0, 2, 0.9);
  const Digraph g = b.Build(/*weighted=*/true);
  ASSERT_TRUE(g.has_weights());
  const auto nbrs = g.OutNeighbors(0);
  const auto weights = g.OutWeights(0);
  ASSERT_EQ(nbrs.size(), 2u);
  EXPECT_EQ(nbrs[0], 1);
  EXPECT_DOUBLE_EQ(weights[0], 0.5);
  EXPECT_EQ(nbrs[1], 2);
  EXPECT_DOUBLE_EQ(weights[1], 0.9);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 2), 0.9);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(1, 0), 0.0);
}

TEST(DigraphTest, UnweightedBuildStoresNoWeights) {
  GraphBuilder b(2);
  b.AddEdge(0, 1, 0.5);
  const Digraph g = b.Build(/*weighted=*/false);
  EXPECT_FALSE(g.has_weights());
}

TEST(DigraphTest, MemoryBytesIsPositive) {
  GraphBuilder b(10);
  for (NodeId i = 0; i < 9; ++i) b.AddEdge(i, i + 1);
  const Digraph g = b.Build();
  EXPECT_GT(g.MemoryBytes(), 0);
}

TEST(GraphBuilderTest, LargeStarGraph) {
  constexpr NodeId kN = 10000;
  GraphBuilder b(kN);
  for (NodeId i = 1; i < kN; ++i) b.AddEdge(i, 0);
  const Digraph g = b.Build();
  EXPECT_EQ(g.InDegree(0), kN - 1);
  EXPECT_EQ(g.OutDegree(0), 0);
  EXPECT_EQ(g.num_edges(), kN - 1);
}

}  // namespace
}  // namespace simgraph
