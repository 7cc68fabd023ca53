#include "serve/simgraph_serving_recommender.h"

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "baselines/cf_recommender.h"
#include "dataset/config.h"
#include "dataset/generator.h"
#include "eval/protocol.h"
#include "serve/serving_recommender.h"

namespace simgraph {
namespace serve {
namespace {

class ServingRecommenderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatasetConfig config = TinyConfig();
    config.seed = 20260806;
    dataset_ = GenerateDataset(config);
    protocol_ = MakeProtocol(dataset_, ProtocolOptions{});
  }

  Dataset dataset_;
  EvalProtocol protocol_;
};

// FNV-1a over every panel user's top-10 list: its length, then each
// (tweet, score bits) pair.
uint64_t HashLists(SimGraphServingRecommender& rec, const EvalProtocol& p,
                   Timestamp now, int64_t* nonempty) {
  uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  *nonempty = 0;
  for (const UserId user : p.panel) {
    const std::vector<ScoredTweet> list = rec.Recommend(user, now, 10);
    mix(list.size());
    for (const ScoredTweet& st : list) {
      mix(static_cast<uint64_t>(st.tweet));
      mix(std::bit_cast<uint64_t>(st.score));
    }
    if (!list.empty()) ++*nonempty;
  }
  return h;
}

// The correctness anchor of the single SimGraph implementation: with the
// snapshot pinned to the training graph (refresh cadence 0), the serving
// recommender reproduces, bit for bit, the offline recommender the
// paper's figures were first computed with. The golden values are that
// offline class's panel top-10 lists at the end of this stream.
TEST_F(ServingRecommenderTest, MatchesOfflineRecommenderOverFullReplay) {
  SimGraphServingRecommender serving;
  ASSERT_TRUE(serving.Train(dataset_, protocol_.train_end).ok());

  Timestamp last_time = protocol_.split_time;
  for (int64_t i = protocol_.train_end; i < dataset_.num_retweets(); ++i) {
    const RetweetEvent& e = dataset_.retweets[static_cast<size_t>(i)];
    serving.ObserveAffected(e);
    last_time = e.time;
  }

  int64_t nonempty = 0;
  EXPECT_EQ(HashLists(serving, protocol_, last_time, &nonempty),
            0x030557c3c492a91dULL);
  EXPECT_EQ(nonempty, 115) << "parity test compared only empty lists";
}

// An event reported as affecting no user must indeed leave every
// recommendation unchanged, and affected users must cover every change
// (this is what the service's precise cache invalidation rests on).
TEST_F(ServingRecommenderTest, AffectedUsersCoverEveryOutputChange) {
  SimGraphServingRecommender serving;
  ASSERT_TRUE(serving.Train(dataset_, protocol_.train_end).ok());

  // Warm up with the first half of the test stream; the next event is
  // the probe.
  const int64_t warmup =
      protocol_.train_end +
      (dataset_.num_retweets() - protocol_.train_end) / 2;
  ASSERT_LT(warmup, dataset_.num_retweets()) << "dataset too small";
  Timestamp now = protocol_.split_time;
  for (int64_t i = protocol_.train_end; i < warmup; ++i) {
    serving.ObserveAffected(dataset_.retweets[static_cast<size_t>(i)]);
    now = dataset_.retweets[static_cast<size_t>(i)].time;
  }

  const int32_t num_users = dataset_.num_users();
  std::vector<std::vector<ScoredTweet>> before(
      static_cast<size_t>(num_users));
  for (UserId u = 0; u < num_users; ++u) {
    before[static_cast<size_t>(u)] = serving.Recommend(u, now, 10);
  }

  const RetweetEvent& e = dataset_.retweets[static_cast<size_t>(warmup)];
  const AffectedUsers affected = serving.ObserveAffected(e);
  EXPECT_FALSE(affected.all);

  std::vector<bool> is_affected(static_cast<size_t>(num_users), false);
  for (const UserId u : affected.users) {
    is_affected[static_cast<size_t>(u)] = true;
  }
  // Same `now` on purpose: only the event may change answers.
  for (UserId u = 0; u < num_users; ++u) {
    if (is_affected[static_cast<size_t>(u)]) continue;
    const auto after = serving.Recommend(u, now, 10);
    const auto& prev = before[static_cast<size_t>(u)];
    ASSERT_EQ(after.size(), prev.size()) << "user " << u;
    for (size_t j = 0; j < prev.size(); ++j) {
      EXPECT_EQ(after[j].tweet, prev[j].tweet) << "user " << u;
      EXPECT_DOUBLE_EQ(after[j].score, prev[j].score) << "user " << u;
    }
  }
}

TEST_F(ServingRecommenderTest, SnapshotRefreshAdvancesEpoch) {
  ServingSimGraphOptions options;
  options.snapshot_refresh_events = 50;
  SimGraphServingRecommender serving(options);
  ASSERT_TRUE(serving.Train(dataset_, protocol_.train_end).ok());
  EXPECT_EQ(serving.graph_epoch(), 1u);
  const auto initial = serving.GraphSnapshot();
  ASSERT_NE(initial, nullptr);

  const int64_t end =
      std::min<int64_t>(protocol_.train_end + 120, dataset_.num_retweets());
  for (int64_t i = protocol_.train_end; i < end; ++i) {
    serving.ObserveAffected(dataset_.retweets[static_cast<size_t>(i)]);
  }
  EXPECT_EQ(serving.graph_epoch(), 1u + static_cast<uint64_t>(
                                            (end - protocol_.train_end) / 50));
  // The old snapshot stays valid for holders across the swap.
  EXPECT_GE(initial->graph.num_nodes(), 0);
  // Recommendations still work on the refreshed graph.
  const UserId user = protocol_.panel.front();
  (void)serving.Recommend(user, dataset_.retweets.back().time, 10);
}

TEST_F(ServingRecommenderTest, UnknownTweetEventOnlyFeedsTheGraph) {
  // The incremental graph exists only with a refresh cadence.
  ServingSimGraphOptions options;
  options.snapshot_refresh_events = 1000;
  SimGraphServingRecommender serving(options);
  ASSERT_TRUE(serving.Train(dataset_, protocol_.train_end).ok());
  RetweetEvent unknown;
  unknown.tweet = dataset_.num_tweets() + 5000;  // beyond the catalogue
  unknown.user = 0;
  unknown.time = protocol_.split_time + 1;
  const int64_t profile_before =
      serving.incremental().profiles().ProfileSize(unknown.user);
  const AffectedUsers affected = serving.ObserveAffected(unknown);
  EXPECT_FALSE(affected.all);
  EXPECT_TRUE(affected.users.empty());
  // The graph still learned the retweet.
  EXPECT_EQ(serving.incremental().profiles().ProfileSize(unknown.user),
            profile_before + 1);
}

TEST_F(ServingRecommenderTest, ExpiredDeadlineReturnsIncomplete) {
  SimGraphServingRecommender serving;
  ASSERT_TRUE(serving.Train(dataset_, protocol_.train_end).ok());
  Timestamp now = protocol_.split_time;
  for (int64_t i = protocol_.train_end; i < dataset_.num_retweets(); ++i) {
    serving.ObserveAffected(dataset_.retweets[static_cast<size_t>(i)]);
    now = dataset_.retweets[static_cast<size_t>(i)].time;
  }
  // Find a user with a non-empty answer, then rerun it with a deadline
  // that expired before the scan started.
  for (const UserId user : protocol_.panel) {
    if (serving.Recommend(user, now, 10).empty()) continue;
    const RecommendOutcome outcome = serving.RecommendUntil(
        user, now, 10,
        std::chrono::steady_clock::now() - std::chrono::seconds(1));
    EXPECT_FALSE(outcome.complete);
    EXPECT_TRUE(outcome.tweets.empty());
    return;
  }
  FAIL() << "no panel user had any recommendation";
}

TEST(GenericServingAdapterTest, WrapsPlainRecommenderConservatively) {
  DatasetConfig config = TinyConfig();
  config.seed = 7;
  const Dataset dataset = GenerateDataset(config);
  const EvalProtocol protocol = MakeProtocol(dataset, ProtocolOptions{});

  std::unique_ptr<ServingRecommender> wrapped =
      WrapForServing(std::make_unique<CfRecommender>());
  CfRecommender reference;
  EXPECT_EQ(wrapped->name(), reference.name());
  EXPECT_FALSE(wrapped->concurrent_reads());
  ASSERT_TRUE(wrapped->Train(dataset, protocol.train_end).ok());
  ASSERT_TRUE(reference.Train(dataset, protocol.train_end).ok());

  Timestamp now = protocol.split_time;
  for (int64_t i = protocol.train_end; i < dataset.num_retweets(); ++i) {
    const RetweetEvent& e = dataset.retweets[static_cast<size_t>(i)];
    const AffectedUsers affected = wrapped->ObserveAffected(e);
    EXPECT_TRUE(affected.all);  // generic adapter cannot be precise
    reference.Observe(e);
    now = e.time;
  }
  for (const UserId user : protocol.panel) {
    const auto expected = reference.Recommend(user, now, 10);
    const auto actual = wrapped->Recommend(user, now, 10);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t j = 0; j < expected.size(); ++j) {
      EXPECT_EQ(actual[j].tweet, expected[j].tweet);
      EXPECT_DOUBLE_EQ(actual[j].score, expected[j].score);
    }
  }
  // The default RecommendUntil ignores deadlines and always completes.
  const RecommendOutcome outcome = wrapped->RecommendUntil(
      protocol.panel.front(), now, 10,
      std::chrono::steady_clock::now() - std::chrono::seconds(1));
  EXPECT_TRUE(outcome.complete);
}

}  // namespace
}  // namespace serve
}  // namespace simgraph
