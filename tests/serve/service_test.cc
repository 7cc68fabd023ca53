#include "serve/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "baselines/cf_recommender.h"
#include "serve/simgraph_serving_recommender.h"
#include "dataset/config.h"
#include "dataset/generator.h"
#include "eval/protocol.h"
#include "serve/simgraph_serving_recommender.h"

namespace simgraph {
namespace serve {
namespace {

class ServiceTest : public ::testing::Test {
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

// THE correctness-under-concurrency anchor of the serving subsystem:
// while reader threads hammer Recommend, the test stream is published
// through the service; at several checkpoints it waits for the ack of a
// chosen event and asserts that the service now answers *exactly* like a
// fresh recommender trained single-threaded over the same event prefix.
TEST_F(ServiceTest, ReadsAfterAckMatchSingleThreadedPrefixRecompute) {
  ServiceOptions options;
  options.cache_ttl = 0;  // cache on; hits only within one sim instant
  RecommendationService service(
      std::make_unique<SimGraphServingRecommender>(), options);
  ASSERT_TRUE(service.Train(dataset_, protocol_.train_end).ok());
  service.Start();

  const int64_t num_test =
      dataset_.num_retweets() - protocol_.train_end;
  ASSERT_GT(num_test, 10);
  std::vector<int64_t> checkpoints;
  for (int i = 1; i <= 5; ++i) checkpoints.push_back(num_test * i / 5);

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
    EXPECT_EQ(seq, static_cast<uint64_t>(published));
    service.WaitForApplied(seq);
    EXPECT_GE(service.AppliedSeq(), seq);

    // Fresh single-threaded recompute over exactly the acked prefix.
    SimGraphServingRecommender reference;
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
  EXPECT_EQ(service.AppliedSeq(), static_cast<uint64_t>(num_test * 5 / 5));
}

// With a fixed query time, cached answers can never diverge from fresh
// ones (same freshness filter, and any candidate change invalidates), so
// the service must stay exact even when most responses come from cache.
TEST_F(ServiceTest, CachedServingStaysExactAtFixedQueryTime) {
  ServiceOptions options;
  options.cache_ttl = 365 * kSecondsPerDay;
  RecommendationService service(
      std::make_unique<SimGraphServingRecommender>(), options);
  ASSERT_TRUE(service.Train(dataset_, protocol_.train_end).ok());
  service.Start();

  const Timestamp now = dataset_.retweets.back().time + 1;
  std::atomic<bool> done{false};
  std::atomic<int64_t> hits{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      uint64_t x = 0xc0ffee + static_cast<uint64_t>(t);
      while (!done.load()) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const RecommendResponse response =
            service.Recommend({sample_[x % sample_.size()], now, 10});
        ASSERT_TRUE(response.status.ok());
        if (response.cache_hit) hits.fetch_add(1);
      }
    });
  }
  uint64_t seq = 0;
  for (int64_t i = protocol_.train_end; i < dataset_.num_retweets(); ++i) {
    seq = service.Publish(dataset_.retweets[static_cast<size_t>(i)]);
  }
  service.WaitForApplied(seq);
  // On a loaded machine the readers can be starved for the whole
  // publish phase; give them time to hit the now-stable cache so the
  // hits assertion below tests cache behaviour, not the scheduler.
  for (int spin = 0; spin < 20000 && hits.load() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  done.store(true);
  for (std::thread& r : readers) r.join();

  SimGraphServingRecommender reference;
  ASSERT_TRUE(reference.Train(dataset_, protocol_.train_end).ok());
  for (int64_t i = protocol_.train_end; i < dataset_.num_retweets(); ++i) {
    reference.Observe(dataset_.retweets[static_cast<size_t>(i)]);
  }
  for (const UserId user : sample_) {
    const RecommendResponse response = service.Recommend({user, now, 10});
    ASSERT_TRUE(response.status.ok());
    ExpectSameLists(response.tweets, reference.Recommend(user, now, 10),
                    user);
  }
  EXPECT_GT(hits.load(), 0) << "the cache never hit; test lost its point";
}

// Precise invalidation: after priming the cache for every user, one
// event must evict exactly the users the recommender reports as affected
// — everyone else keeps being served from cache.
TEST_F(ServiceTest, EventInvalidatesExactlyTheAffectedUsers) {
  ServiceOptions options;
  options.cache_ttl = 365 * kSecondsPerDay;
  RecommendationService service(
      std::make_unique<SimGraphServingRecommender>(), options);
  ASSERT_TRUE(service.Train(dataset_, protocol_.train_end).ok());
  service.Start();

  // A deterministic twin replays the same prefix to predict the
  // affected set of the probe event.
  SimGraphServingRecommender twin;
  ASSERT_TRUE(twin.Train(dataset_, protocol_.train_end).ok());

  const int64_t warmup = std::min<int64_t>(
      protocol_.train_end + 100, dataset_.num_retweets() - 1);
  uint64_t seq = 0;
  for (int64_t i = protocol_.train_end; i < warmup; ++i) {
    const RetweetEvent& e = dataset_.retweets[static_cast<size_t>(i)];
    seq = service.Publish(e);
    twin.ObserveAffected(e);
  }
  service.WaitForApplied(seq);

  const Timestamp now = dataset_.retweets.back().time + 1;
  const int32_t num_users = dataset_.num_users();
  for (UserId u = 0; u < num_users; ++u) {
    ASSERT_TRUE(service.Recommend({u, now, 10}).status.ok());
  }
  ASSERT_EQ(service.cache()->size(), num_users);

  const RetweetEvent& probe =
      dataset_.retweets[static_cast<size_t>(warmup)];
  const AffectedUsers affected = twin.ObserveAffected(probe);
  ASSERT_FALSE(affected.all);
  ASSERT_FALSE(affected.users.empty());
  service.WaitForApplied(service.Publish(probe));

  std::vector<bool> is_affected(static_cast<size_t>(num_users), false);
  for (const UserId u : affected.users) {
    is_affected[static_cast<size_t>(u)] = true;
  }
  for (UserId u = 0; u < num_users; ++u) {
    const RecommendResponse response = service.Recommend({u, now, 10});
    ASSERT_TRUE(response.status.ok());
    EXPECT_EQ(response.cache_hit, !is_affected[static_cast<size_t>(u)])
        << "user " << u;
  }
}

// A negative deadline budget is an already-expired deadline: every
// uncached request must degrade deterministically (and degraded answers
// must never be cached).
TEST_F(ServiceTest, NegativeDeadlineDegradesEveryUncachedRequest) {
  ServiceOptions options;
  options.cache_ttl = -1;  // caching off
  options.deadline = std::chrono::microseconds(-1);
  RecommendationService service(
      std::make_unique<SimGraphServingRecommender>(), options);
  ASSERT_TRUE(service.Train(dataset_, protocol_.train_end).ok());
  service.Start();
  EXPECT_EQ(service.cache(), nullptr);

  uint64_t seq = 0;
  for (int64_t i = protocol_.train_end; i < dataset_.num_retweets(); ++i) {
    seq = service.Publish(dataset_.retweets[static_cast<size_t>(i)]);
  }
  service.WaitForApplied(seq);
  const Timestamp now = dataset_.retweets.back().time;

  bool saw_degraded = false;
  for (const UserId user : sample_) {
    const RecommendResponse response = service.Recommend({user, now, 30});
    ASSERT_TRUE(response.status.ok());
    if (response.degraded) {
      saw_degraded = true;
      EXPECT_TRUE(response.tweets.empty());  // nothing scanned before cutoff
    }
  }
  EXPECT_TRUE(saw_degraded);
}

// The generic adapter path: a plain Recommender behind the service, with
// coarse invalidate-all caching and serialised access, must still match
// the same recommender driven sequentially.
TEST_F(ServiceTest, GenericAdapterMatchesSequentialReference) {
  ServiceOptions options;
  options.cache_ttl = 365 * kSecondsPerDay;
  RecommendationService service(
      WrapForServing(std::make_unique<CfRecommender>()), options);
  ASSERT_TRUE(service.Train(dataset_, protocol_.train_end).ok());
  service.Start();

  const Timestamp now = dataset_.retweets.back().time + 1;
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      uint64_t x = 0xabcd + static_cast<uint64_t>(t);
      while (!done.load()) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        ASSERT_TRUE(service
                        .Recommend({sample_[x % sample_.size()], now, 10})
                        .status.ok());
      }
    });
  }
  uint64_t seq = 0;
  for (int64_t i = protocol_.train_end; i < dataset_.num_retweets(); ++i) {
    seq = service.Publish(dataset_.retweets[static_cast<size_t>(i)]);
  }
  service.WaitForApplied(seq);
  done.store(true);
  for (std::thread& r : readers) r.join();

  CfRecommender reference;
  ASSERT_TRUE(reference.Train(dataset_, protocol_.train_end).ok());
  for (int64_t i = protocol_.train_end; i < dataset_.num_retweets(); ++i) {
    reference.Observe(dataset_.retweets[static_cast<size_t>(i)]);
  }
  for (const UserId user : sample_) {
    const RecommendResponse response = service.Recommend({user, now, 10});
    ASSERT_TRUE(response.status.ok());
    ExpectSameLists(response.tweets, reference.Recommend(user, now, 10),
                    user);
  }
}

TEST_F(ServiceTest, BatchSharesCumulativeDeadlinesAndValidatesInput) {
  ServiceOptions options;
  options.cache_ttl = 0;
  RecommendationService service(
      std::make_unique<SimGraphServingRecommender>(), options);
  ASSERT_TRUE(service.Train(dataset_, protocol_.train_end).ok());
  service.Start();
  const Timestamp now = protocol_.split_time;

  std::vector<RecommendRequest> requests;
  requests.push_back({sample_[0], now, 5});
  requests.push_back({-1, now, 5});                    // invalid user
  requests.push_back({sample_[1], now, 0});            // invalid k
  requests.push_back({dataset_.num_users() + 7, now, 5});  // out of range
  requests.push_back({sample_[2], now, 5});
  const std::vector<RecommendResponse> responses =
      service.RecommendBatch(requests);
  ASSERT_EQ(responses.size(), requests.size());
  EXPECT_TRUE(responses[0].status.ok());
  EXPECT_FALSE(responses[1].status.ok());
  EXPECT_FALSE(responses[2].status.ok());
  EXPECT_FALSE(responses[3].status.ok());
  EXPECT_TRUE(responses[4].status.ok());

  // Batch answers equal singleton answers on quiescent state.
  const RecommendResponse single = service.Recommend({sample_[0], now, 5});
  ASSERT_TRUE(single.status.ok());
  ExpectSameLists(responses[0].tweets, single.tweets, sample_[0]);
}

TEST_F(ServiceTest, StopIsIdempotentAndUnblocksWaiters) {
  ServiceOptions options;
  RecommendationService service(
      std::make_unique<SimGraphServingRecommender>(), options);
  ASSERT_TRUE(service.Train(dataset_, protocol_.train_end).ok());
  service.Start();
  const uint64_t seq =
      service.Publish(dataset_.retweets[static_cast<size_t>(
          protocol_.train_end)]);
  EXPECT_EQ(seq, 1u);

  // A waiter parked on a sequence number that will never be published
  // must be released by Stop.
  std::thread waiter([&] { service.WaitForApplied(1000); });
  service.WaitForApplied(seq);
  service.Stop();
  waiter.join();
  service.Stop();  // idempotent
  EXPECT_EQ(service.Publish(dataset_.retweets[static_cast<size_t>(
                protocol_.train_end)]),
            0u);  // rejected after stop
}

}  // namespace
}  // namespace serve
}  // namespace simgraph
