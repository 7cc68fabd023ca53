#include <gtest/gtest.h>

#include "dataset/generator.h"
#include "graph/graph_builder.h"
#include "serve/simgraph_serving_recommender.h"
#include "util/logging.h"

namespace simgraph {
namespace serve {
namespace {

// User 9 never retweets (cold) but follows users 0 and 1, who are warm
// SimGraph members. Author is 3; 0, 1, 2 co-retweet during training.
Dataset MakeTrace() {
  Dataset d;
  GraphBuilder b(10);
  b.AddEdge(0, 2);
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);
  b.AddEdge(0, 3);
  b.AddEdge(1, 3);
  b.AddEdge(9, 0);  // cold user follows warm users
  b.AddEdge(9, 1);
  d.follow_graph = b.Build();
  const Timestamp h = kSecondsPerHour;
  d.tweets = {
      Tweet{0, 3, 1 * h, 0},
      Tweet{1, 3, 2 * h, 0},
      Tweet{2, 3, 3 * h, 0},
      Tweet{3, 3, 100 * h, 0},
  };
  d.retweets = {
      RetweetEvent{0, 0, 4 * h},  RetweetEvent{0, 1, 5 * h},
      RetweetEvent{0, 2, 6 * h},  RetweetEvent{1, 0, 7 * h},
      RetweetEvent{1, 1, 8 * h},  RetweetEvent{1, 2, 9 * h},
      RetweetEvent{2, 0, 10 * h}, RetweetEvent{2, 1, 11 * h},
      RetweetEvent{2, 2, 12 * h},
      RetweetEvent{3, 2, 101 * h},  // test: user 2 shares tweet 3
  };
  SIMGRAPH_CHECK_OK(d.Validate());
  return d;
}

ServingSimGraphOptions WithFallback() {
  ServingSimGraphOptions o;
  o.graph.tau = 1e-6;
  o.cold_start_fallback = true;
  return o;
}

TEST(ColdStartTest, ColdUserDetection) {
  const Dataset d = MakeTrace();
  SimGraphServingRecommender rec(WithFallback());
  ASSERT_TRUE(rec.Train(d, 9).ok());
  EXPECT_TRUE(rec.IsColdUser(9));
  EXPECT_FALSE(rec.IsColdUser(0));
}

TEST(ColdStartTest, FallbackServesFolloweesCandidates) {
  const Dataset d = MakeTrace();
  SimGraphServingRecommender rec(WithFallback());
  ASSERT_TRUE(rec.Train(d, 9).ok());
  rec.Observe(d.retweets.back());
  // Users 0 and 1 get tweet 3 by propagation; cold user 9 inherits it.
  const auto recs = rec.Recommend(9, 102 * kSecondsPerHour, 10);
  ASSERT_FALSE(recs.empty());
  EXPECT_EQ(recs[0].tweet, 3);
  EXPECT_GT(recs[0].score, 0.0);
}

TEST(ColdStartTest, DisabledFallbackReturnsNothing) {
  const Dataset d = MakeTrace();
  ServingSimGraphOptions o = WithFallback();
  o.cold_start_fallback = false;
  SimGraphServingRecommender rec(o);
  ASSERT_TRUE(rec.Train(d, 9).ok());
  rec.Observe(d.retweets.back());
  EXPECT_TRUE(rec.Recommend(9, 102 * kSecondsPerHour, 10).empty());
}

TEST(ColdStartTest, FallbackScoreIsFolloweeAverage) {
  const Dataset d = MakeTrace();
  SimGraphServingRecommender rec(WithFallback());
  ASSERT_TRUE(rec.Train(d, 9).ok());
  rec.Observe(d.retweets.back());
  const Timestamp now = 102 * kSecondsPerHour;
  const auto r0 = rec.Recommend(0, now, 10);
  const auto r1 = rec.Recommend(1, now, 10);
  ASSERT_FALSE(r0.empty());
  ASSERT_FALSE(r1.empty());
  const auto r9 = rec.Recommend(9, now, 10);
  ASSERT_FALSE(r9.empty());
  EXPECT_NEAR(r9[0].score, (r0[0].score + r1[0].score) / 2.0, 1e-12);
}

TEST(ColdStartTest, WarmUsersUnaffectedByFallback) {
  const Dataset d = MakeTrace();
  SimGraphServingRecommender with(WithFallback());
  ASSERT_TRUE(with.Train(d, 9).ok());
  with.Observe(d.retweets.back());
  ServingSimGraphOptions o = WithFallback();
  o.cold_start_fallback = false;
  SimGraphServingRecommender without(o);
  ASSERT_TRUE(without.Train(d, 9).ok());
  without.Observe(d.retweets.back());
  const Timestamp now = 102 * kSecondsPerHour;
  const auto a = with.Recommend(0, now, 10);
  const auto b = without.Recommend(0, now, 10);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tweet, b[i].tweet);
    EXPECT_DOUBLE_EQ(a[i].score, b[i].score);
  }
}

TEST(ColdStartTest, ConsumedPostsAreFiltered) {
  const Dataset d = MakeTrace();
  SimGraphServingRecommender rec(WithFallback());
  ASSERT_TRUE(rec.Train(d, 9).ok());
  rec.Observe(d.retweets.back());
  // Cold user 9 now retweets tweet 3 themself.
  rec.Observe(RetweetEvent{3, 9, 103 * kSecondsPerHour});
  for (const auto& r : rec.Recommend(9, 104 * kSecondsPerHour, 10)) {
    EXPECT_NE(r.tweet, 3);
  }
}

TEST(ColdStartTest, RaisesCoverageOnGeneratedTrace) {
  const Dataset d = GenerateDataset(TinyConfig());
  const int64_t split = d.SplitIndex(0.9);
  ServingSimGraphOptions o;
  o.graph.tau = 0.002;
  o.cold_start_fallback = true;
  SimGraphServingRecommender with(o);
  ASSERT_TRUE(with.Train(d, split).ok());
  o.cold_start_fallback = false;
  SimGraphServingRecommender without(o);
  ASSERT_TRUE(without.Train(d, split).ok());
  for (int64_t i = split; i < d.num_retweets(); ++i) {
    with.Observe(d.retweets[static_cast<size_t>(i)]);
    without.Observe(d.retweets[static_cast<size_t>(i)]);
  }
  const Timestamp now = d.EndTime();
  int64_t covered_with = 0;
  int64_t covered_without = 0;
  for (UserId u = 0; u < d.num_users(); ++u) {
    if (!with.Recommend(u, now, 5).empty()) ++covered_with;
    if (!without.Recommend(u, now, 5).empty()) ++covered_without;
  }
  EXPECT_GE(covered_with, covered_without);
}

}  // namespace
}  // namespace serve
}  // namespace simgraph
