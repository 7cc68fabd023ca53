#include "core/simgraph.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "util/logging.h"

#include "core/hop_ball.h"
#include "dataset/generator.h"
#include "graph/bfs.h"
#include "graph/graph_builder.h"

namespace simgraph {
namespace {

// Follow graph: 0 -> 1 -> 2, 0 -> 3, 3 -> 2, 2 -> 4.
// Retweet trace sets up similarities between 0, 2 and 3 (see tweets).
Dataset MakeTrace() {
  Dataset d;
  GraphBuilder b(6);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 3);
  b.AddEdge(3, 2);
  b.AddEdge(2, 4);
  d.follow_graph = b.Build();
  // Author 5 publishes everything; users 0, 2, 3 co-retweet.
  for (TweetId i = 0; i < 3; ++i) {
    d.tweets.push_back(Tweet{i, /*author=*/5, /*time=*/i, /*topic=*/0});
  }
  d.retweets = {
      RetweetEvent{0, 0, 10}, RetweetEvent{0, 2, 11}, RetweetEvent{0, 3, 12},
      RetweetEvent{1, 0, 13}, RetweetEvent{1, 2, 14},
      RetweetEvent{2, 3, 15}, RetweetEvent{2, 4, 16},
      RetweetEvent{0, 4, 17},  // user 4 also shares t0 -> sim(2,4) > 0
  };
  SIMGRAPH_CHECK_OK(d.Validate());
  return d;
}

TEST(SimGraphBuilderTest, EdgesRequireTwoHopReachabilityAndThreshold) {
  const Dataset d = MakeTrace();
  ProfileStore profiles(d, d.num_retweets());
  SimGraphOptions opts;
  opts.tau = 1e-6;
  const SimGraph sg = BuildSimGraph(d.follow_graph, profiles, opts);
  // sim(0,2) > 0 and 2 is in N2(0) via 1 or 3 -> edge 0->2 exists.
  EXPECT_TRUE(sg.graph.HasEdge(0, 2));
  EXPECT_GT(sg.graph.EdgeWeight(0, 2), 0.0);
  // sim(0,3) > 0 and 3 in N1(0) -> edge 0->3.
  EXPECT_TRUE(sg.graph.HasEdge(0, 3));
  // sim(2,4) > 0 and 4 in N1(2) -> edge 2->4.
  EXPECT_TRUE(sg.graph.HasEdge(2, 4));
  // 0 is NOT reachable from 2 within 2 hops (2->4 only) -> no edge 2->0
  // even though sim(2,0) > 0.
  EXPECT_GT(profiles.Similarity(2, 0), 0.0);
  EXPECT_FALSE(sg.graph.HasEdge(2, 0));
}

TEST(SimGraphBuilderTest, EdgeWeightsEqualSimilarity) {
  const Dataset d = MakeTrace();
  ProfileStore profiles(d, d.num_retweets());
  SimGraphOptions opts;
  opts.tau = 1e-6;
  const SimGraph sg = BuildSimGraph(d.follow_graph, profiles, opts);
  for (NodeId u = 0; u < sg.graph.num_nodes(); ++u) {
    const auto nbrs = sg.graph.OutNeighbors(u);
    const auto weights = sg.graph.OutWeights(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      EXPECT_NEAR(weights[i], profiles.Similarity(u, nbrs[i]), 1e-12);
      EXPECT_GE(weights[i], opts.tau);
    }
  }
}

TEST(SimGraphBuilderTest, HigherTauPrunesEdges) {
  const Dataset d = MakeTrace();
  ProfileStore profiles(d, d.num_retweets());
  SimGraphOptions low;
  low.tau = 1e-6;
  SimGraphOptions high;
  high.tau = 0.5;
  const SimGraph sg_low = BuildSimGraph(d.follow_graph, profiles, low);
  const SimGraph sg_high = BuildSimGraph(d.follow_graph, profiles, high);
  EXPECT_LT(sg_high.graph.num_edges(), sg_low.graph.num_edges());
}

TEST(SimGraphBuilderTest, BfsAndInvertedIndexModesAgree) {
  // The optimisation must not change the graph (DESIGN.md ablation 3).
  const Dataset d = GenerateDataset(TinyConfig());
  ProfileStore profiles(d, d.num_retweets());
  SimGraphOptions bfs;
  bfs.tau = 0.005;
  bfs.mode = CandidateMode::kTwoHopBfs;
  SimGraphOptions inv = bfs;
  inv.mode = CandidateMode::kInvertedIndex;
  const SimGraph a = BuildSimGraph(d.follow_graph, profiles, bfs);
  const SimGraph b = BuildSimGraph(d.follow_graph, profiles, inv);
  ASSERT_EQ(a.graph.num_edges(), b.graph.num_edges());
  for (NodeId u = 0; u < a.graph.num_nodes(); ++u) {
    const auto na = a.graph.OutNeighbors(u);
    const auto nb = b.graph.OutNeighbors(u);
    ASSERT_EQ(na.size(), nb.size());
    for (size_t i = 0; i < na.size(); ++i) {
      ASSERT_EQ(na[i], nb[i]);
      // Exact: both modes sum in u's profile order over the same union.
      ASSERT_EQ(a.graph.OutWeights(u)[i], b.graph.OutWeights(u)[i]);
    }
  }
}

TEST(HopBallTest, MatchesKHopNeighborhoodWhenReused) {
  // One ball refilled for every source and radius must hold exactly the
  // graph library's N_k(u); a slot left over from an earlier fill must not
  // leak into the next one.
  const Dataset d = GenerateDataset(TinyConfig());
  const Digraph& g = d.follow_graph;
  HopBall ball;
  for (int32_t k = 0; k <= 3; ++k) {
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      ball.Fill(g, u, k);
      std::vector<NodeId> got(ball.members().begin(), ball.members().end());
      std::sort(got.begin(), got.end());
      std::vector<NodeId> want;
      for (const HopNode& hop :
           KHopNeighborhood(g, u, k, TraversalDirection::kOut)) {
        want.push_back(hop.node);
      }
      ASSERT_EQ(got, want) << "source " << u << ", k " << k;
      EXPECT_FALSE(ball.Contains(u));
      for (const NodeId v : want) ASSERT_TRUE(ball.Contains(v));
    }
  }
}

TEST(SimGraphBuilderTest, MultithreadedBuildIsDeterministic) {
  const Dataset d = GenerateDataset(TinyConfig());
  ProfileStore profiles(d, d.num_retweets());
  SimGraphOptions one;
  one.tau = 0.005;
  one.num_threads = 1;
  SimGraphOptions four = one;
  four.num_threads = 4;
  const SimGraph a = BuildSimGraph(d.follow_graph, profiles, one);
  const SimGraph b = BuildSimGraph(d.follow_graph, profiles, four);
  ASSERT_EQ(a.graph.num_edges(), b.graph.num_edges());
  for (NodeId u = 0; u < a.graph.num_nodes(); ++u) {
    const auto na = a.graph.OutNeighbors(u);
    const auto nb = b.graph.OutNeighbors(u);
    ASSERT_EQ(na.size(), nb.size());
    for (size_t i = 0; i < na.size(); ++i) {
      ASSERT_EQ(na[i], nb[i]);
      ASSERT_EQ(a.graph.OutWeights(u)[i], b.graph.OutWeights(u)[i]);
    }
  }
}

TEST(SimGraphTest, PresentNodesAndMeans) {
  const Dataset d = MakeTrace();
  ProfileStore profiles(d, d.num_retweets());
  SimGraphOptions opts;
  opts.tau = 1e-6;
  const SimGraph sg = BuildSimGraph(d.follow_graph, profiles, opts);
  EXPECT_GT(sg.NumPresentNodes(), 0);
  EXPECT_LE(sg.NumPresentNodes(), d.num_users());
  EXPECT_GT(sg.MeanSimilarity(), 0.0);
  EXPECT_LE(sg.MeanSimilarity(), 1.0);
  EXPECT_GT(sg.MeanOutDegreePresent(), 0.0);
}

TEST(SimGraphTest, RoughlyHalfTheUsersAreAbsent) {
  // Table 4: cold users (no retweets / no co-retweeters) are absent from
  // the SimGraph.
  const Dataset d = GenerateDataset(TinyConfig());
  ProfileStore profiles(d, d.num_retweets());
  SimGraphOptions opts;
  opts.tau = 0.001;
  const SimGraph sg = BuildSimGraph(d.follow_graph, profiles, opts);
  EXPECT_LT(sg.NumPresentNodes(), d.num_users());
  EXPECT_GT(sg.NumPresentNodes(), d.num_users() / 20);
}

TEST(SimGraphTest, SummaryUsesPresentNodesForDegrees) {
  const Dataset d = MakeTrace();
  ProfileStore profiles(d, d.num_retweets());
  SimGraphOptions opts;
  opts.tau = 1e-6;
  const SimGraph sg = BuildSimGraph(d.follow_graph, profiles, opts);
  PathStatsOptions popts;
  popts.num_sources = 6;
  const GraphSummary s = SummarizeSimGraph(sg, popts);
  EXPECT_EQ(s.num_edges, sg.graph.num_edges());
  EXPECT_DOUBLE_EQ(s.avg_out_degree, sg.MeanOutDegreePresent());
}

TEST(SimGraphBuilderDeathTest, ZeroTauRejected) {
  const Dataset d = MakeTrace();
  ProfileStore profiles(d, d.num_retweets());
  SimGraphOptions opts;
  opts.tau = 0.0;
  EXPECT_DEATH(BuildSimGraph(d.follow_graph, profiles, opts), "tau");
}

}  // namespace
}  // namespace simgraph
