#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/simgraph_delta.h"
#include "serve/simgraph_serving_recommender.h"
#include "dataset/config.h"
#include "dataset/generator.h"
#include "eval/protocol.h"
#include "serve/delta_applier.h"
#include "serve/sharded_service.h"
#include "serve/simgraph_serving_recommender.h"

namespace simgraph {
namespace serve {
namespace {

class DeltaEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatasetConfig config = TinyConfig();
    config.seed = 60809;
    dataset_ = GenerateDataset(config);
    protocol_ = MakeProtocol(dataset_, ProtocolOptions{});
    num_test_ = dataset_.num_retweets() - protocol_.train_end;
    ASSERT_GT(num_test_, 10);
    sample_.assign(protocol_.panel.begin(),
                   protocol_.panel.begin() +
                       std::min<size_t>(protocol_.panel.size(), 48));
  }

  const RetweetEvent& TestEvent(int64_t i) const {
    return dataset_.retweets[static_cast<size_t>(protocol_.train_end + i)];
  }

  static void ExpectBitIdentical(const std::vector<ScoredTweet>& actual,
                                 const std::vector<ScoredTweet>& expected,
                                 UserId user) {
    ASSERT_EQ(actual.size(), expected.size()) << "user " << user;
    for (size_t j = 0; j < expected.size(); ++j) {
      EXPECT_EQ(actual[j].tweet, expected[j].tweet) << "user " << user;
      // Exact equality, not near-equality: the applier replays the very
      // doubles the builder computed, so the answers must be
      // bit-identical, never merely close.
      EXPECT_EQ(actual[j].score, expected[j].score) << "user " << user;
    }
  }

  Dataset dataset_;
  EvalProtocol protocol_;
  std::vector<UserId> sample_;
  int64_t num_test_ = 0;
};

// The delta-shipping anchor: while reader threads hammer all shards,
// the test stream goes through the builder pipeline; at several
// checkpoints every sampled user's answer — served by a
// DeltaApplierRecommender shard that never ran the incremental update
// itself — must exactly match a fresh recommender trained
// single-threaded over the same event prefix. Each ack covers the
// published prefix on every shard, and after Stop the service has
// applied the whole stream.
TEST_F(DeltaEquivalenceTest, AppliedDeltasMatchPrefixRecomputeOnEveryShard) {
  ShardedServiceOptions options;
  options.num_shards = 4;
  options.shard_options.cache_ttl = 0;
  ShardedService service(ServingSimGraphOptions{}, options);
  ASSERT_EQ(service.num_shards(), 4);
  ASSERT_NE(service.builder_recommender(), nullptr);
  ASSERT_TRUE(service.Train(dataset_, protocol_.train_end).ok());
  service.Start();

  std::vector<int64_t> checkpoints;
  for (int i = 1; i <= 3; ++i) checkpoints.push_back(num_test_ * i / 3);

  std::atomic<Timestamp> sim_now{protocol_.split_time};
  std::atomic<bool> done{false};
  std::atomic<int64_t> background_failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      uint64_t x = 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(t);
      while (!done.load()) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const UserId user = sample_[x % sample_.size()];
        const RecommendResponse response = service.Recommend(
            {user, sim_now.load(std::memory_order_relaxed), 10});
        if (!response.status.ok()) background_failures.fetch_add(1);
      }
    });
  }

  int64_t published = 0;
  for (const int64_t checkpoint : checkpoints) {
    uint64_t seq = 0;
    while (published < checkpoint) {
      const RetweetEvent& e = TestEvent(published);
      seq = service.Publish(e);
      sim_now.store(e.time, std::memory_order_relaxed);
      ++published;
    }
    // The global sequence number equals the count published, exactly as
    // on an unsharded service.
    EXPECT_EQ(seq, static_cast<uint64_t>(published));
    service.WaitForApplied(seq);
    EXPECT_GE(service.AppliedSeq(), seq);
    for (int32_t s = 0; s < service.num_shards(); ++s) {
      EXPECT_GE(service.shard(s).AppliedSeq(), seq) << "shard " << s;
    }

    SimGraphServingRecommender reference;
    ASSERT_TRUE(reference.Train(dataset_, protocol_.train_end).ok());
    for (int64_t i = 0; i < published; ++i) reference.Observe(TestEvent(i));
    const Timestamp now = sim_now.load();
    for (const UserId user : sample_) {
      const RecommendResponse response = service.Recommend({user, now, 10});
      ASSERT_TRUE(response.status.ok());
      EXPECT_FALSE(response.degraded);
      ExpectBitIdentical(response.tweets, reference.Recommend(user, now, 10),
                         user);
    }
  }

  done.store(true);
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(background_failures.load(), 0);
  service.Stop();
  EXPECT_EQ(service.AppliedSeq(), static_cast<uint64_t>(num_test_));
}

// With snapshot refreshes enabled (epoch swaps mid-stream), the
// delta-shipping service must stay bit-identical to one serving
// recommender with the same refresh cadence, fed the same event prefix
// single-threaded: same graph epochs and edge counts, same scores on
// every shard at every checkpoint.
TEST_F(DeltaEquivalenceTest,
       AppliedDeltasMatchSingleRecommenderAcrossEpochSwaps) {
  ServingSimGraphOptions simgraph_options;
  simgraph_options.snapshot_refresh_events = 16;

  ShardedServiceOptions options;
  options.num_shards = 3;
  options.shard_options.cache_ttl = 0;
  ShardedService service(simgraph_options, options);
  SimGraphServingRecommender reference(simgraph_options);
  ASSERT_TRUE(service.Train(dataset_, protocol_.train_end).ok());
  ASSERT_TRUE(reference.Train(dataset_, protocol_.train_end).ok());
  service.Start();

  std::vector<int64_t> checkpoints;
  for (int i = 1; i <= 4; ++i) checkpoints.push_back(num_test_ * i / 4);
  int64_t published = 0;
  for (const int64_t checkpoint : checkpoints) {
    uint64_t seq = 0;
    while (published < checkpoint) {
      const RetweetEvent& e = TestEvent(published);
      seq = service.Publish(e);
      reference.Observe(e);
      ++published;
    }
    EXPECT_EQ(seq, static_cast<uint64_t>(published));
    service.WaitForApplied(seq);

    const Timestamp now = TestEvent(published - 1).time;
    for (const UserId user : sample_) {
      const RecommendResponse actual = service.Recommend({user, now, 10});
      ASSERT_TRUE(actual.status.ok());
      ExpectBitIdentical(actual.tweets, reference.Recommend(user, now, 10),
                         user);
    }
    // Epoch swaps shipped through deltas land on every applier shard.
    uint64_t reference_epoch = 0;
    int64_t reference_edges = 0;
    ASSERT_TRUE(reference.GraphStats(&reference_epoch, &reference_edges));
    const BackendStats stats = service.Stats();
    EXPECT_EQ(stats.graph_epoch, reference_epoch);
    EXPECT_EQ(stats.graph_edges, reference_edges);
  }
  EXPECT_GT(service.Stats().graph_epoch, 1u);  // swaps happened

  service.Stop();
}

// A remote replica fed only serialized bytes (the delta_observer tap,
// standing in for an RPC transport) reconstructs the same candidate
// state as the in-process shards: serialize -> parse -> ApplyDelta must
// converge to the same answers.
TEST_F(DeltaEquivalenceTest, WireFedReplicaMatchesInProcessShards) {
  DeltaApplierOptions applier_options;  // defaults mirror the builder's
  auto replica = std::make_unique<DeltaApplierRecommender>(applier_options);
  DeltaApplierRecommender* replica_ptr = replica.get();

  ShardedServiceOptions options;
  options.num_shards = 2;
  options.shard_options.cache_ttl = 0;
  options.max_batch_events = 4;
  options.delta_observer = [replica_ptr](const SimGraphDelta& delta) {
    std::string wire;
    delta.SerializeTo(&wire);
    SimGraphDelta parsed;
    ASSERT_TRUE(SimGraphDelta::Parse(wire, &parsed).ok());
    replica_ptr->ApplyDelta(parsed);
  };
  // Default options: snapshot_refresh_events = 0, so no epoch swap is
  // shipped mid-stream and the replica keeps the stats seeded below.
  ShardedService service(ServingSimGraphOptions{}, options);
  ASSERT_TRUE(service.Train(dataset_, protocol_.train_end).ok());
  ASSERT_TRUE(replica->Train(dataset_, protocol_.train_end).ok());
  uint64_t epoch = 0;
  int64_t edges = 0;
  ASSERT_TRUE(service.builder_recommender()->GraphStats(&epoch, &edges));
  replica->SeedRemoteGraphStats(epoch, edges);
  service.Start();

  uint64_t seq = 0;
  for (int64_t i = 0; i < num_test_; ++i) seq = service.Publish(TestEvent(i));
  service.WaitForApplied(seq);
  service.Stop();  // joins the builder: the replica is quiescent now
  EXPECT_EQ(replica->applied_delta_seq(), static_cast<uint64_t>(num_test_));
  ASSERT_TRUE(replica->GraphStats(&epoch, &edges));
  EXPECT_EQ(epoch, service.Stats().graph_epoch);
  EXPECT_EQ(edges, service.Stats().graph_edges);

  const Timestamp now = dataset_.retweets.back().time;
  for (const UserId user : sample_) {
    const RecommendResponse served = service.Recommend({user, now, 10});
    ASSERT_TRUE(served.status.ok());
    ExpectBitIdentical(replica->Recommend(user, now, 10), served.tweets,
                       user);
  }
}

// SGDL starts a new deposit group wherever the tweet changes or the
// user does not increase, so two events that deposit one tweet back to
// back in one batch ship as two adjacent groups on that tweet. Replay
// them from serialized bytes: the replica must still match the
// in-process shards bit for bit.
TEST_F(DeltaEquivalenceTest,
       WireFedReplicaMatchesShardsWhenOneTweetIsDepositedByConsecutiveEvents) {
  // The test stream, with each tweet's retweets made adjacent.
  std::vector<RetweetEvent> stream;
  for (int64_t i = 0; i < num_test_; ++i) stream.push_back(TestEvent(i));
  std::stable_sort(stream.begin(), stream.end(),
                   [](const RetweetEvent& a, const RetweetEvent& b) {
                     return a.tweet < b.tweet;
                   });

  auto replica = std::make_unique<DeltaApplierRecommender>();
  DeltaApplierRecommender* replica_ptr = replica.get();
  bool split_tweet_shipped = false;  // builder thread only
  ShardedServiceOptions options;
  options.num_shards = 2;
  options.shard_options.cache_ttl = 0;
  options.delta_observer = [replica_ptr, &split_tweet_shipped](
                               const SimGraphDelta& delta) {
    for (size_t i = 1; i < delta.deposits.size(); ++i) {
      if (delta.deposits[i].tweet == delta.deposits[i - 1].tweet &&
          delta.deposits[i].user <= delta.deposits[i - 1].user) {
        split_tweet_shipped = true;
      }
    }
    std::string wire;
    delta.SerializeTo(&wire);
    SimGraphDelta parsed;
    ASSERT_TRUE(SimGraphDelta::Parse(wire, &parsed).ok());
    replica_ptr->ApplyDelta(parsed);
  };
  ShardedService service(ServingSimGraphOptions{}, options);
  ASSERT_TRUE(service.Train(dataset_, protocol_.train_end).ok());
  ASSERT_TRUE(replica->Train(dataset_, protocol_.train_end).ok());
  service.Start();
  // Queue the stream behind a stopped builder so it drains in full
  // batches.
  service.CrashBuilderForTest();
  uint64_t seq = 0;
  for (const RetweetEvent& event : stream) seq = service.Publish(event);
  service.RecoverBuilderForTest();
  service.WaitForApplied(seq);
  service.Stop();  // joins the builder: the replica is quiescent now
  EXPECT_TRUE(split_tweet_shipped);
  EXPECT_EQ(replica->applied_delta_seq(), seq);

  const Timestamp now = dataset_.retweets.back().time;
  for (const UserId user : sample_) {
    const RecommendResponse served = service.Recommend({user, now, 10});
    ASSERT_TRUE(served.status.ok());
    ExpectBitIdentical(replica->Recommend(user, now, 10), served.tweets,
                       user);
  }
}

}  // namespace
}  // namespace serve
}  // namespace simgraph
