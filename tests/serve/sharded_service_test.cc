#include "serve/sharded_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "core/simgraph_recommender.h"
#include "dataset/config.h"
#include "dataset/generator.h"
#include "eval/protocol.h"
#include "serve/simgraph_serving_recommender.h"

namespace simgraph {
namespace serve {
namespace {

std::unique_ptr<ServingRecommender> MakeSimGraph() {
  return std::make_unique<SimGraphServingRecommender>();
}

class ShardedServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatasetConfig config = TinyConfig();
    config.seed = 60806;
    dataset_ = GenerateDataset(config);
    protocol_ = MakeProtocol(dataset_, ProtocolOptions{});
    sample_.assign(protocol_.panel.begin(),
                   protocol_.panel.begin() +
                       std::min<size_t>(protocol_.panel.size(), 48));
  }

  void ExpectSameLists(const std::vector<ScoredTweet>& actual,
                       const std::vector<ScoredTweet>& expected,
                       UserId user) {
    ASSERT_EQ(actual.size(), expected.size()) << "user " << user;
    for (size_t j = 0; j < expected.size(); ++j) {
      EXPECT_EQ(actual[j].tweet, expected[j].tweet) << "user " << user;
      EXPECT_DOUBLE_EQ(actual[j].score, expected[j].score)
          << "user " << user;
    }
  }

  Dataset dataset_;
  EvalProtocol protocol_;
  std::vector<UserId> sample_;
};

// The sharded counterpart of the service anchor test: while reader
// threads hammer Recommend (landing on all four shards), the test
// stream is published through the sharded front door; at several
// checkpoints it waits for the ack and asserts that every user's answer
// — whichever shard owns them — exactly matches a fresh recommender
// trained single-threaded over the same event prefix. This is what the
// lockstep fan-out must guarantee.
TEST_F(ShardedServiceTest, ReadsAfterAckMatchPrefixRecomputeOnEveryShard) {
  ShardedServiceOptions options;
  options.num_shards = 4;
  options.shard_options.cache_ttl = 0;
  ShardedService service(MakeSimGraph, options);
  ASSERT_EQ(service.num_shards(), 4);
  ASSERT_TRUE(service.Train(dataset_, protocol_.train_end).ok());
  service.Start();

  const int64_t num_test = dataset_.num_retweets() - protocol_.train_end;
  ASSERT_GT(num_test, 10);
  std::vector<int64_t> checkpoints;
  for (int i = 1; i <= 3; ++i) checkpoints.push_back(num_test * i / 3);

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
      const RetweetEvent& e =
          dataset_.retweets[static_cast<size_t>(protocol_.train_end +
                                                published)];
      seq = service.Publish(e);
      sim_now.store(e.time, std::memory_order_relaxed);
      ++published;
    }
    // Lockstep: the global sequence number equals the count published,
    // exactly as on an unsharded service.
    EXPECT_EQ(seq, static_cast<uint64_t>(published));
    service.WaitForApplied(seq);
    EXPECT_GE(service.AppliedSeq(), seq);
    // ...and every shard individually reached it.
    for (int32_t s = 0; s < service.num_shards(); ++s) {
      EXPECT_GE(service.shard(s).AppliedSeq(), seq) << "shard " << s;
    }

    SimGraphRecommender reference;
    ASSERT_TRUE(reference.Train(dataset_, protocol_.train_end).ok());
    for (int64_t i = 0; i < published; ++i) {
      reference.Observe(dataset_.retweets[static_cast<size_t>(
          protocol_.train_end + i)]);
    }
    const Timestamp now = sim_now.load();
    for (const UserId user : sample_) {
      const RecommendResponse response =
          service.Recommend({user, now, 10});
      ASSERT_TRUE(response.status.ok());
      EXPECT_FALSE(response.degraded);
      ExpectSameLists(response.tweets, reference.Recommend(user, now, 10),
                      user);
    }
  }

  done.store(true);
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(background_failures.load(), 0);
  service.Stop();
  EXPECT_EQ(service.AppliedSeq(), static_cast<uint64_t>(num_test));
}

// Requests land only on the owning shard: with long-TTL caching, each
// queried user's cache entry must appear on exactly the shard the
// router names, and Stats() must aggregate the per-shard breakdown.
TEST_F(ShardedServiceTest, RecommendRoutesToOwningShardOnly) {
  ShardedServiceOptions options;
  options.num_shards = 4;
  options.shard_options.cache_ttl = 365 * kSecondsPerDay;
  ShardedService service(MakeSimGraph, options);
  ASSERT_TRUE(service.Train(dataset_, protocol_.train_end).ok());
  service.Start();

  const Timestamp now = dataset_.retweets.back().time + 1;
  std::vector<int64_t> expected_entries(4, 0);
  for (const UserId user : sample_) {
    ASSERT_TRUE(service.Recommend({user, now, 10}).status.ok());
    ++expected_entries[static_cast<size_t>(service.ShardOf(user))];
  }

  const BackendStats stats = service.Stats();
  ASSERT_EQ(stats.shards.size(), 4u);
  int64_t total_entries = 0;
  for (int32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(stats.shards[static_cast<size_t>(s)].cached_entries,
              expected_entries[static_cast<size_t>(s)])
        << "shard " << s;
    total_entries += stats.shards[static_cast<size_t>(s)].cached_entries;
  }
  EXPECT_EQ(stats.cached_entries, total_entries);
  // All shards quiescent at the same applied seq => the aggregate
  // minimum equals each shard's value (0: nothing published yet).
  EXPECT_EQ(stats.applied_seq, 0u);
  EXPECT_GT(stats.graph_edges, 0);
}

// A sample of users must spread over all shards — otherwise the routing
// test above would pass vacuously with everything on one shard.
TEST_F(ShardedServiceTest, PanelUsersSpreadAcrossShards) {
  ShardedServiceOptions options;
  options.num_shards = 4;
  ShardedService service(MakeSimGraph, options);
  std::vector<bool> hit(4, false);
  for (const UserId user : protocol_.panel) {
    hit[static_cast<size_t>(service.ShardOf(user))] = true;
  }
  EXPECT_TRUE(std::all_of(hit.begin(), hit.end(), [](bool b) { return b; }));
}

// Delta-shipping construction: the same front-door invariants hold
// when the shards are DeltaApplierRecommenders behind the builder
// pipeline, and the service reports the builder's progress.
// (Bit-exact answer equivalence is proven separately in
// delta_equivalence_test.cc.)
TEST_F(ShardedServiceTest, DeltaModeKeepsFrontDoorInvariants) {
  ShardedServiceOptions options;
  options.num_shards = 4;
  options.shard_options.cache_ttl = 0;
  ShardedService service(ServingSimGraphOptions{}, options);
  EXPECT_TRUE(service.delta_shipping());
  ASSERT_NE(service.builder_recommender(), nullptr);
  ASSERT_TRUE(service.Train(dataset_, protocol_.train_end).ok());
  service.Start();

  const int64_t num_test = dataset_.num_retweets() - protocol_.train_end;
  uint64_t seq = 0;
  for (int64_t i = 0; i < num_test; ++i) {
    seq = service.Publish(
        dataset_.retweets[static_cast<size_t>(protocol_.train_end + i)]);
  }
  EXPECT_EQ(seq, static_cast<uint64_t>(num_test));
  service.WaitForApplied(seq);
  EXPECT_EQ(service.AppliedSeq(), seq);
  EXPECT_EQ(service.BuiltSeq(), seq);
  for (int32_t s = 0; s < service.num_shards(); ++s) {
    EXPECT_GE(service.shard(s).AppliedSeq(), seq) << "shard " << s;
  }
  const BackendStats stats = service.Stats();
  ASSERT_EQ(stats.shards.size(), 4u);
  EXPECT_EQ(stats.applied_seq, seq);
  EXPECT_GT(stats.graph_edges, 0);  // appliers carry the seeded snapshot
  service.Stop();
}

// Delta-shipping shards are partitioned, not replicated: the builder
// hands each shard only the ops of the users it owns, so a shard that
// does not own a user holds no candidates for them, while the routed
// answer still matches a single-threaded prefix recompute.
TEST_F(ShardedServiceTest, DeltaShardsHoldOnlyTheUsersTheyOwn) {
  ShardedServiceOptions options;
  options.num_shards = 4;
  options.shard_options.cache_ttl = 0;
  ShardedService service(ServingSimGraphOptions{}, options);
  ASSERT_TRUE(service.Train(dataset_, protocol_.train_end).ok());
  service.Start();

  SimGraphRecommender reference;
  ASSERT_TRUE(reference.Train(dataset_, protocol_.train_end).ok());
  const int64_t num_test = dataset_.num_retweets() - protocol_.train_end;
  uint64_t seq = 0;
  for (int64_t i = 0; i < num_test; ++i) {
    const RetweetEvent& e =
        dataset_.retweets[static_cast<size_t>(protocol_.train_end + i)];
    seq = service.Publish(e);
    reference.Observe(e);
  }
  service.WaitForApplied(seq);

  const Timestamp now = dataset_.retweets.back().time;
  int64_t non_empty = 0;
  for (const UserId user : sample_) {
    const RecommendResponse routed = service.Recommend({user, now, 10});
    ASSERT_TRUE(routed.status.ok());
    ExpectSameLists(routed.tweets, reference.Recommend(user, now, 10), user);
    if (!routed.tweets.empty()) ++non_empty;
    const int32_t owner = service.ShardOf(user);
    for (int32_t s = 0; s < service.num_shards(); ++s) {
      if (s == owner) continue;
      EXPECT_TRUE(service.shard(s).recommender().Recommend(user, now, 10)
                      .empty())
          << "user " << user << " on non-owning shard " << s;
    }
  }
  // The emptiness checks above only mean something if owners answer.
  EXPECT_GT(non_empty, 0);
  service.Stop();
}

TEST_F(ShardedServiceTest, StopIsIdempotentAndRejectsFurtherPublishes) {
  ShardedServiceOptions options;
  options.num_shards = 2;
  ShardedService service(MakeSimGraph, options);
  ASSERT_TRUE(service.Train(dataset_, protocol_.train_end).ok());
  service.Start();
  const RetweetEvent& e =
      dataset_.retweets[static_cast<size_t>(protocol_.train_end)];
  EXPECT_EQ(service.Publish(e), 1u);

  std::thread waiter([&] { service.WaitForApplied(1000); });
  service.WaitForApplied(1);
  service.Stop();
  waiter.join();
  service.Stop();  // idempotent
  EXPECT_EQ(service.Publish(e), 0u);
}

}  // namespace
}  // namespace serve
}  // namespace simgraph
