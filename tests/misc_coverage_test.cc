// Cross-cutting coverage for smaller behaviours not exercised elsewhere:
// deterministic sampling in path statistics, unweighted DOT export, SOR
// omega sweeps, and recommender freshness-window configuration.

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "simgraph/simgraph.h"

namespace simgraph {
namespace {

TEST(PathStatsDeterminismTest, SameSeedSameDistribution) {
  const Dataset d = GenerateDataset(TinyConfig());
  PathStatsOptions a;
  a.num_sources = 16;
  a.seed = 5;
  PathStatsOptions b = a;
  EXPECT_EQ(ShortestPathDistribution(d.follow_graph, a),
            ShortestPathDistribution(d.follow_graph, b));
  const GraphSummary sa = Summarize(d.follow_graph, a);
  const GraphSummary sb = Summarize(d.follow_graph, b);
  EXPECT_DOUBLE_EQ(sa.avg_path_length, sb.avg_path_length);
  EXPECT_EQ(sa.diameter_estimate, sb.diameter_estimate);
}

TEST(DotExportTest, UnweightedGraphHasNoLabels) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  const Digraph g = b.Build();
  const std::string path = ::testing::TempDir() + "/unweighted.dot";
  ASSERT_TRUE(WriteDot(g, path).ok());
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content.find("label"), std::string::npos);
  std::remove(path.c_str());
}

class SorOmegaTest : public ::testing::TestWithParam<double> {};

TEST_P(SorOmegaTest, ConvergesAcrossRelaxations) {
  // Diagonally dominant system converges for every omega in (0, 2).
  std::vector<double> diag = {4.0, 4.0, 4.0};
  std::vector<std::vector<MatrixEntry>> rows(3);
  rows[0] = {{1, -1.0}};
  rows[1] = {{0, -1.0}, {2, -1.0}};
  rows[2] = {{1, -1.0}};
  SparseMatrix a(std::move(diag), rows);
  SolverOptions opts;
  opts.method = SolverMethod::kSor;
  opts.sor_omega = GetParam();
  opts.max_iterations = 5000;
  const auto r = Solve(a, {2.0, 4.0, 10.0}, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NEAR(r->solution[0], 1.0, 1e-7);
  EXPECT_NEAR(r->solution[1], 2.0, 1e-7);
  EXPECT_NEAR(r->solution[2], 3.0, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Omegas, SorOmegaTest,
                         ::testing::Values(0.5, 0.9, 1.0, 1.2, 1.5, 1.9));

TEST(FreshnessWindowTest, ShorterWindowExpiresSooner) {
  // Hand-built trace: tweet published at t=0; user 1 shares it at t=1h.
  Dataset d;
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 2);
  d.follow_graph = b.Build();
  d.tweets = {Tweet{0, 2, 0, 0}, Tweet{1, 2, 0, 0}};
  const Timestamp h = kSecondsPerHour;
  d.retweets = {
      RetweetEvent{1, 0, 1 * h}, RetweetEvent{1, 1, 2 * h},  // training
      RetweetEvent{0, 1, 3 * h},                             // test
  };
  SIMGRAPH_CHECK_OK(d.Validate());

  for (const Timestamp window : {Timestamp{6 * h}, Timestamp{72 * h}}) {
    serve::ServingSimGraphOptions opts;
    opts.graph.tau = 1e-6;
    opts.freshness_window = window;
    serve::SimGraphServingRecommender rec(opts);
    ASSERT_TRUE(rec.Train(d, 2).ok());
    rec.Observe(d.retweets[2]);
    // At t = 5h the post is fresh for both windows.
    EXPECT_FALSE(rec.Recommend(0, 5 * h, 10).empty());
    // At t = 10h only the 72h window still serves it.
    const bool fresh_at_10h = !rec.Recommend(0, 10 * h, 10).empty();
    EXPECT_EQ(fresh_at_10h, window == 72 * h);
  }
}

TEST(InterestModelTest, CommunityMembersAreSortedAndUnique) {
  DatasetConfig c = TinyConfig();
  Rng rng(c.seed);
  InterestModel m(c, rng);
  for (int32_t com = 0; com < m.num_communities(); ++com) {
    const auto& members = m.CommunityMembers(com);
    for (size_t i = 1; i < members.size(); ++i) {
      ASSERT_LT(members[i - 1], members[i]);
    }
  }
}

TEST(EvalProtocolTest, ClassOfMatchesMembership) {
  const Dataset d = GenerateDataset(TinyConfig());
  ProtocolOptions opts;
  opts.users_per_class = 20;
  opts.low_max = 3;
  opts.moderate_max = 10;
  const EvalProtocol p = MakeProtocol(d, opts);
  for (UserId u : p.low_users) {
    EXPECT_EQ(p.ClassOf(u), EvalProtocol::ActivityClass::kLow);
  }
  for (UserId u : p.moderate_users) {
    EXPECT_EQ(p.ClassOf(u), EvalProtocol::ActivityClass::kModerate);
  }
  for (UserId u : p.intensive_users) {
    EXPECT_EQ(p.ClassOf(u), EvalProtocol::ActivityClass::kIntensive);
  }
}

}  // namespace
}  // namespace simgraph
