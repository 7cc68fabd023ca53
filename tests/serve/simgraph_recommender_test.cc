#include "serve/simgraph_serving_recommender.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "util/logging.h"

#include "dataset/generator.h"
#include "graph/graph_builder.h"

namespace simgraph {
namespace serve {
namespace {

// Follow graph wired so users 0,1,2 co-retweet during training and a test
// tweet propagates from user 2 to users 0 and 1 through the SimGraph.
Dataset MakeTrace() {
  Dataset d;
  GraphBuilder b(4);
  // 0 and 1 follow 2; 2 follows 3 (the author).
  b.AddEdge(0, 2);
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);
  b.AddEdge(0, 3);
  b.AddEdge(1, 3);
  d.follow_graph = b.Build();
  // Tweets by author 3. Training tweets 0..2, test tweet 3.
  const Timestamp h = kSecondsPerHour;
  d.tweets = {
      Tweet{0, 3, 1 * h, 0},
      Tweet{1, 3, 2 * h, 0},
      Tweet{2, 3, 3 * h, 0},
      Tweet{3, 3, 100 * h, 0},
  };
  // Training: users 0, 1, 2 all retweet tweets 0-2 (strong similarity).
  d.retweets = {
      RetweetEvent{0, 0, 4 * h},   RetweetEvent{0, 1, 5 * h},
      RetweetEvent{0, 2, 6 * h},   RetweetEvent{1, 0, 7 * h},
      RetweetEvent{1, 1, 8 * h},   RetweetEvent{1, 2, 9 * h},
      RetweetEvent{2, 0, 10 * h},  RetweetEvent{2, 1, 11 * h},
      RetweetEvent{2, 2, 12 * h},
      // Test period: user 2 retweets tweet 3.
      RetweetEvent{3, 2, 101 * h},
  };
  SIMGRAPH_CHECK_OK(d.Validate());
  return d;
}

ServingSimGraphOptions SmallOptions() {
  ServingSimGraphOptions o;
  o.graph.tau = 1e-6;
  return o;
}

TEST(SimGraphRecommenderTest, TrainBuildsSimGraph) {
  const Dataset d = MakeTrace();
  SimGraphServingRecommender rec(SmallOptions());
  ASSERT_TRUE(rec.Train(d, /*train_end=*/9).ok());
  // All three co-retweeting users are mutually 1-hop/2-hop reachable
  // through user 2 or author 3... 0->2 direct, 0->1? N2(0)={2,3}; so 0->2
  // at least must exist.
  EXPECT_TRUE(rec.GraphSnapshot()->graph.HasEdge(0, 2));
  EXPECT_TRUE(rec.GraphSnapshot()->graph.HasEdge(1, 2));
}

TEST(SimGraphRecommenderTest, ObservedRetweetPropagatesToSimilarUsers) {
  const Dataset d = MakeTrace();
  SimGraphServingRecommender rec(SmallOptions());
  ASSERT_TRUE(rec.Train(d, 9).ok());
  rec.Observe(d.retweets.back());  // user 2 shares tweet 3
  const Timestamp now = 102 * kSecondsPerHour;
  const auto recs0 = rec.Recommend(0, now, 10);
  ASSERT_FALSE(recs0.empty());
  EXPECT_EQ(recs0[0].tweet, 3);
  EXPECT_GT(recs0[0].score, 0.0);
  const auto recs1 = rec.Recommend(1, now, 10);
  ASSERT_FALSE(recs1.empty());
  EXPECT_EQ(recs1[0].tweet, 3);
}

TEST(SimGraphRecommenderTest, SharerIsNotRecommendedTheTweet) {
  const Dataset d = MakeTrace();
  SimGraphServingRecommender rec(SmallOptions());
  ASSERT_TRUE(rec.Train(d, 9).ok());
  rec.Observe(d.retweets.back());
  const auto recs2 = rec.Recommend(2, 102 * kSecondsPerHour, 10);
  for (const auto& r : recs2) EXPECT_NE(r.tweet, 3);
}

TEST(SimGraphRecommenderTest, AuthorIsNotRecommendedOwnTweet) {
  const Dataset d = MakeTrace();
  SimGraphServingRecommender rec(SmallOptions());
  ASSERT_TRUE(rec.Train(d, 9).ok());
  rec.Observe(d.retweets.back());
  const auto recs3 = rec.Recommend(3, 102 * kSecondsPerHour, 10);
  for (const auto& r : recs3) EXPECT_NE(r.tweet, 3);
}

TEST(SimGraphRecommenderTest, StaleTweetsExpireFromRecommendations) {
  const Dataset d = MakeTrace();
  SimGraphServingRecommender rec(SmallOptions());
  ASSERT_TRUE(rec.Train(d, 9).ok());
  rec.Observe(d.retweets.back());
  // 73 hours after publication of tweet 3, it is no longer fresh.
  const auto recs = rec.Recommend(0, (100 + 73) * kSecondsPerHour, 10);
  EXPECT_TRUE(recs.empty());
}

TEST(SimGraphRecommenderTest, PostponedDeltaBatchesPropagations) {
  const Dataset d = GenerateDataset(TinyConfig());
  const int64_t split = d.SplitIndex(0.9);

  ServingSimGraphOptions eager;
  eager.graph.tau = 0.001;
  eager.postpone_delta = 0;
  SimGraphServingRecommender rec_eager(eager);
  ASSERT_TRUE(rec_eager.Train(d, split).ok());

  ServingSimGraphOptions lazy = eager;
  lazy.postpone_delta = 12 * kSecondsPerHour;
  SimGraphServingRecommender rec_lazy(lazy);
  ASSERT_TRUE(rec_lazy.Train(d, split).ok());

  for (int64_t i = split; i < d.num_retweets(); ++i) {
    rec_eager.Observe(d.retweets[static_cast<size_t>(i)]);
    rec_lazy.Observe(d.retweets[static_cast<size_t>(i)]);
  }
  EXPECT_GT(rec_eager.num_propagations(), 0);
  EXPECT_LT(rec_lazy.num_propagations(), rec_eager.num_propagations());
}

// Delta 0 propagates every retweet, also one whose timestamp precedes
// the tweet's last propagation (events may arrive out of order).
TEST(SimGraphRecommenderTest, ZeroDeltaPropagatesOutOfOrderRetweets) {
  const Dataset d = MakeTrace();
  SimGraphServingRecommender rec(SmallOptions());
  ASSERT_TRUE(rec.Train(d, 9).ok());
  rec.Observe(d.retweets.back());  // user 2 shares tweet 3 at 101 h
  ASSERT_EQ(rec.num_propagations(), 1);
  rec.Observe(RetweetEvent{3, 1, 100 * kSecondsPerHour + 1});
  EXPECT_EQ(rec.num_propagations(), 2);
  const auto recs0 = rec.Recommend(0, 102 * kSecondsPerHour, 10);
  ASSERT_FALSE(recs0.empty());
  EXPECT_EQ(recs0[0].tweet, 3);
}

TEST(SimGraphRecommenderTest, TrainEndOutOfRangeIsError) {
  const Dataset d = MakeTrace();
  SimGraphServingRecommender rec(SmallOptions());
  EXPECT_EQ(rec.Train(d, d.num_retweets() + 1).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(rec.Train(d, -1).code(), StatusCode::kInvalidArgument);
}

TEST(SimGraphRecommenderTest, ReplaceSimGraphSwapsPropagationTopology) {
  const Dataset d = MakeTrace();
  SimGraphServingRecommender rec(SmallOptions());
  ASSERT_TRUE(rec.Train(d, 9).ok());
  // Replace with an empty graph: propagation reaches nobody.
  SimGraph empty;
  GraphBuilder b(d.num_users());
  empty.graph = b.Build(/*weighted=*/true);
  rec.ReplaceSimGraph(std::move(empty));
  rec.Observe(d.retweets.back());
  EXPECT_TRUE(rec.Recommend(0, 102 * kSecondsPerHour, 10).empty());
}

TEST(SimGraphRecommenderTest, NameIsStable) {
  SimGraphServingRecommender rec;
  EXPECT_EQ(rec.name(), "SimGraph");
}

}  // namespace
}  // namespace serve
}  // namespace simgraph
