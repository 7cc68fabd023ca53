#include "core/similarity.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "util/logging.h"

#include "dataset/generator.h"
#include "graph/graph_builder.h"

namespace simgraph {
namespace {

// Users 0..3; tweets 0..3 authored by user 4 to keep retweets legal.
// Retweet pattern:
//   u0: {0, 1}
//   u1: {0, 1}
//   u2: {1, 2}
//   u3: {}          (cold user)
// Popularities: t0=2, t1=3, t2=1, t3=0.
Dataset MakeTrace() {
  Dataset d;
  GraphBuilder b(5);
  b.AddEdge(0, 4);
  b.AddEdge(1, 4);
  b.AddEdge(2, 4);
  b.AddEdge(3, 4);
  d.follow_graph = b.Build();
  for (TweetId i = 0; i < 4; ++i) {
    d.tweets.push_back(Tweet{i, /*author=*/4, /*time=*/i * 10, /*topic=*/0});
  }
  d.retweets = {
      RetweetEvent{0, 0, 100}, RetweetEvent{0, 1, 101},
      RetweetEvent{1, 0, 102}, RetweetEvent{1, 1, 103},
      RetweetEvent{1, 2, 104}, RetweetEvent{2, 2, 105},
  };
  SIMGRAPH_CHECK_OK(d.Validate());
  return d;
}

TEST(ProfileStoreTest, ProfilesAreSortedAndComplete) {
  const Dataset d = MakeTrace();
  ProfileStore p(d, d.num_retweets());
  ASSERT_EQ(p.ProfileSize(0), 2);
  EXPECT_EQ(p.Profile(0)[0], 0);
  EXPECT_EQ(p.Profile(0)[1], 1);
  EXPECT_EQ(p.ProfileSize(2), 2);
  EXPECT_EQ(p.ProfileSize(3), 0);
  EXPECT_EQ(p.ProfileSize(4), 0);
}

TEST(ProfileStoreTest, PopularityCounts) {
  const Dataset d = MakeTrace();
  ProfileStore p(d, d.num_retweets());
  EXPECT_EQ(p.Popularity(0), 2);
  EXPECT_EQ(p.Popularity(1), 3);
  EXPECT_EQ(p.Popularity(2), 1);
  EXPECT_EQ(p.Popularity(3), 0);
}

TEST(ProfileStoreTest, InvertedIndexMatchesProfiles) {
  const Dataset d = MakeTrace();
  ProfileStore p(d, d.num_retweets());
  const auto rt1 = p.Retweeters(1);
  ASSERT_EQ(rt1.size(), 3u);
  EXPECT_EQ(rt1[0], 0);
  EXPECT_EQ(rt1[1], 1);
  EXPECT_EQ(rt1[2], 2);
  EXPECT_TRUE(p.Retweeters(3).empty());
}

TEST(ProfileStoreTest, WindowLimitsEvents) {
  const Dataset d = MakeTrace();
  ProfileStore p(d, /*event_end=*/2);  // only t0 retweets by u0, u1
  EXPECT_EQ(p.Popularity(0), 2);
  EXPECT_EQ(p.Popularity(1), 0);
  EXPECT_EQ(p.ProfileSize(0), 1);
  EXPECT_EQ(p.ProfileSize(2), 0);
}

TEST(SimilarityTest, MatchesDefinition31ByHand) {
  const Dataset d = MakeTrace();
  ProfileStore p(d, d.num_retweets());
  // sim(0,1): intersection {0,1}; weights 1/log(3) + 1/log(4);
  // union {0,1} has size 2... |L0 ∪ L1| = |{0,1}| = 2.
  const double expected01 =
      (1.0 / std::log(1.0 + 2.0) + 1.0 / std::log(1.0 + 3.0)) / 2.0;
  EXPECT_NEAR(p.Similarity(0, 1), expected01, 1e-12);
  // sim(0,2): intersection {1}; union {0,1,2} size 3.
  const double expected02 = (1.0 / std::log(1.0 + 3.0)) / 3.0;
  EXPECT_NEAR(p.Similarity(0, 2), expected02, 1e-12);
}

TEST(SimilarityTest, PopularItemsWeighLess) {
  // The Breese adjustment: a co-retweet of a rare tweet implies more
  // similarity than a co-retweet of a popular one.
  const Dataset d = MakeTrace();
  ProfileStore p(d, d.num_retweets());
  // u0 & u1 share t0 (pop 2) and t1 (pop 3): weight(t0) > weight(t1).
  EXPECT_GT(p.TweetWeight(0), p.TweetWeight(1));
  EXPECT_GT(p.TweetWeight(2), p.TweetWeight(0));
}

TEST(SimilarityTest, ZeroForDisjointProfiles) {
  const Dataset d = MakeTrace();
  ProfileStore p(d, d.num_retweets());
  EXPECT_DOUBLE_EQ(p.Similarity(0, 3), 0.0);
  EXPECT_DOUBLE_EQ(p.Similarity(3, 0), 0.0);
}

TEST(SimilarityTest, SymmetricAndSelfIsOne) {
  const Dataset d = MakeTrace();
  ProfileStore p(d, d.num_retweets());
  EXPECT_DOUBLE_EQ(p.Similarity(0, 2), p.Similarity(2, 0));
  EXPECT_DOUBLE_EQ(p.Similarity(1, 1), 1.0);
}

TEST(SimilarityTest, UnretweetedTweetHasZeroWeight) {
  const Dataset d = MakeTrace();
  ProfileStore p(d, d.num_retweets());
  EXPECT_DOUBLE_EQ(p.TweetWeight(3), 0.0);
}

TEST(SimilaritiesOfTest, MatchesPairwiseSimilarity) {
  const Dataset d = MakeTrace();
  ProfileStore p(d, d.num_retweets());
  SimilarityScratch scratch;
  const auto sims = p.SimilaritiesOf(0, scratch);
  // u0 co-retweets with u1 (t0, t1) and u2 (t1).
  ASSERT_EQ(sims.size(), 2u);
  for (const auto& [v, sim] : sims) {
    EXPECT_NEAR(sim, p.Similarity(0, v), 1e-12);
  }
}

TEST(SimilaritiesOfTest, ExcludesSelfAndCold) {
  const Dataset d = MakeTrace();
  ProfileStore p(d, d.num_retweets());
  SimilarityScratch scratch;
  for (const auto& [v, sim] : p.SimilaritiesOf(1, scratch)) {
    EXPECT_NE(v, 1);
    EXPECT_GT(sim, 0.0);
  }
  EXPECT_TRUE(p.SimilaritiesOf(3, scratch).empty());
}

TEST(SimilaritiesOfTest, AgreesWithPairwiseOnSyntheticData) {
  // Property check on a generated trace: the inverted-index batch
  // computation must equal the merge-based pairwise one.
  const Dataset d = GenerateDataset(TinyConfig());
  ProfileStore p(d, d.num_retweets());
  SimilarityScratch scratch;
  int checked = 0;
  for (UserId u = 0; u < d.num_users() && checked < 20; ++u) {
    const auto sims = p.SimilaritiesOf(u, scratch);
    if (sims.empty()) continue;
    ++checked;
    for (const auto& [v, sim] : sims) {
      ASSERT_NEAR(sim, p.Similarity(u, v), 1e-10);
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(SimilaritiesOfTest, ReusedScratchIsExactInAnyOrder) {
  // One scratch serves every user, visited in a shuffled order, so each
  // call lands on slots that earlier sources left dirty. Every value must
  // equal the pairwise merge bit for bit, and no co-retweeter may be
  // missing or extra.
  const Dataset d = GenerateDataset(TinyConfig());
  ProfileStore p(d, d.num_retweets());
  std::vector<UserId> order(static_cast<size_t>(d.num_users()));
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), std::mt19937(7));
  SimilarityScratch scratch;
  int64_t pairs = 0;
  for (const UserId u : order) {
    const auto sims = p.SimilaritiesOf(u, scratch);
    for (const auto& [v, sim] : sims) EXPECT_EQ(sim, p.Similarity(u, v));
    int64_t expected = 0;
    for (UserId v = 0; v < d.num_users(); ++v) {
      if (v != u && p.Similarity(u, v) > 0.0) ++expected;
    }
    ASSERT_EQ(static_cast<int64_t>(sims.size()), expected) << "user " << u;
    pairs += expected;
  }
  EXPECT_GT(pairs, 0);
}

}  // namespace
}  // namespace simgraph
