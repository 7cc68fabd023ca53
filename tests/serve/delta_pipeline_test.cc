#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/simgraph_delta.h"
#include "serve/simgraph_serving_recommender.h"
#include "dataset/config.h"
#include "dataset/generator.h"
#include "eval/protocol.h"
#include "serve/sharded_service.h"

namespace simgraph {
namespace serve {
namespace {

class DeltaPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatasetConfig config = TinyConfig();
    config.seed = 60808;
    dataset_ = GenerateDataset(config);
    protocol_ = MakeProtocol(dataset_, ProtocolOptions{});
    num_test_ = dataset_.num_retweets() - protocol_.train_end;
    ASSERT_GT(num_test_, 20);
  }

  const RetweetEvent& TestEvent(int64_t i) const {
    return dataset_.retweets[static_cast<size_t>(protocol_.train_end + i)];
  }

  Dataset dataset_;
  EvalProtocol protocol_;
  int64_t num_test_ = 0;
};

// Stop drains: everything buffered in the global queue must still be
// built, fanned out, and applied before Stop returns — no acked event
// is ever dropped.
TEST_F(DeltaPipelineTest, StopDrainsGlobalQueueThroughBuilder) {
  ShardedServiceOptions options;
  options.num_shards = 2;
  ShardedService service(ServingSimGraphOptions{}, options);
  ASSERT_TRUE(service.Train(dataset_, protocol_.train_end).ok());
  service.Start();
  uint64_t last_seq = 0;
  for (int64_t i = 0; i < num_test_; ++i) {
    last_seq = service.Publish(TestEvent(i));
  }
  EXPECT_EQ(last_seq, static_cast<uint64_t>(num_test_));
  service.Stop();  // no WaitForApplied first — Stop itself must drain
  EXPECT_EQ(service.AppliedSeq(), static_cast<uint64_t>(num_test_));
  EXPECT_EQ(service.BuiltSeq(), static_cast<uint64_t>(num_test_));
  service.Stop();  // idempotent
  EXPECT_EQ(service.Publish(TestEvent(0)), 0u);
}

// Under batching, shipped deltas must tile the sequence space exactly:
// contiguous [seq_begin, seq_end] ranges, no gap, no overlap, within
// the configured batch bound — and each one must survive a wire
// round-trip bit-for-bit.
TEST_F(DeltaPipelineTest, DeltasTileTheSequenceSpaceUnderBatching) {
  std::vector<std::pair<uint64_t, uint64_t>> ranges;  // builder thread only
  int64_t wire_bytes = 0;
  ShardedServiceOptions options;
  options.num_shards = 2;
  options.max_batch_events = 4;
  options.delta_observer = [&](const SimGraphDelta& delta) {
    ranges.emplace_back(delta.seq_begin, delta.seq_end);
    std::string wire;
    delta.SerializeTo(&wire);
    wire_bytes += static_cast<int64_t>(wire.size());
    SimGraphDelta parsed;
    ASSERT_TRUE(SimGraphDelta::Parse(wire, &parsed).ok());
    ASSERT_EQ(parsed.seq_begin, delta.seq_begin);
    ASSERT_EQ(parsed.seq_end, delta.seq_end);
    ASSERT_EQ(parsed.deposits.size(), delta.deposits.size());
    ASSERT_EQ(parsed.invalidated, delta.invalidated);
  };
  ShardedService service(ServingSimGraphOptions{}, options);
  ASSERT_TRUE(service.Train(dataset_, protocol_.train_end).ok());
  service.Start();
  // Publish the whole stream as fast as possible so a backlog forms and
  // the builder actually batches (correctness below does not depend on
  // whether it did).
  for (int64_t i = 0; i < num_test_; ++i) service.Publish(TestEvent(i));
  service.Stop();  // joins the builder: `ranges` is safe to read now

  ASSERT_FALSE(ranges.empty());
  uint64_t expected_begin = 1;
  for (const auto& [begin, end] : ranges) {
    EXPECT_EQ(begin, expected_begin);
    ASSERT_GE(end, begin);
    EXPECT_LE(end - begin + 1,
              static_cast<uint64_t>(options.max_batch_events));
    expected_begin = end + 1;
  }
  EXPECT_EQ(ranges.back().second, static_cast<uint64_t>(num_test_));
  EXPECT_GT(wire_bytes, 0);
}

// A builder crash between batches loses nothing: events published while
// it is down stay queued, applied state freezes at the last shipped
// delta, and Recover resumes from the exact queue position — after
// which every answer matches a single-threaded prefix recompute over
// the full stream.
TEST_F(DeltaPipelineTest, CrashedBuilderRecoversWithoutLosingEvents) {
  ShardedServiceOptions options;
  options.num_shards = 2;
  options.shard_options.cache_ttl = 0;
  ShardedService service(ServingSimGraphOptions{}, options);
  ASSERT_TRUE(service.Train(dataset_, protocol_.train_end).ok());
  service.Start();

  const int64_t before_crash = num_test_ / 2;
  for (int64_t i = 0; i < before_crash; ++i) service.Publish(TestEvent(i));
  service.WaitForApplied(static_cast<uint64_t>(before_crash));

  service.CrashBuilderForTest();
  // Events published into the dead pipeline are accepted (they land in
  // the global queue) but must not reach any shard...
  for (int64_t i = before_crash; i < num_test_; ++i) {
    EXPECT_EQ(service.Publish(TestEvent(i)),
              static_cast<uint64_t>(i + 1));
  }
  EXPECT_EQ(service.AppliedSeq(), static_cast<uint64_t>(before_crash));
  EXPECT_EQ(service.BuiltSeq(), static_cast<uint64_t>(before_crash));

  // ...until the builder comes back and works off the backlog.
  service.RecoverBuilderForTest();
  service.WaitForApplied(static_cast<uint64_t>(num_test_));
  EXPECT_EQ(service.AppliedSeq(), static_cast<uint64_t>(num_test_));

  SimGraphServingRecommender reference;
  ASSERT_TRUE(reference.Train(dataset_, protocol_.train_end).ok());
  for (int64_t i = 0; i < num_test_; ++i) reference.Observe(TestEvent(i));
  const Timestamp now = dataset_.retweets.back().time;
  for (const UserId user : protocol_.panel) {
    const RecommendResponse response = service.Recommend({user, now, 10});
    ASSERT_TRUE(response.status.ok());
    const std::vector<ScoredTweet> expected =
        reference.Recommend(user, now, 10);
    ASSERT_EQ(response.tweets.size(), expected.size()) << "user " << user;
    for (size_t j = 0; j < expected.size(); ++j) {
      EXPECT_EQ(response.tweets[j].tweet, expected[j].tweet)
          << "user " << user;
      EXPECT_EQ(response.tweets[j].score, expected[j].score)
          << "user " << user;
    }
  }
  service.Stop();
}

// SGDL carries no invalidated list and groups deposits by tweet, so pin
// the codec against the builder's own deltas: for every delta of the
// test stream, built one event at a time and in full batches, the wire
// round trip gives back the deposits and consumed marks exactly, in
// order, and derives the very invalidated list the builder recorded.
TEST_F(DeltaPipelineTest, WireRoundTripIsExactForRecordedStreams) {
  const int64_t full_batch = ShardedServiceOptions{}.max_batch_events;
  for (const int64_t batch : {int64_t{1}, full_batch}) {
    SCOPED_TRACE("max_batch_events " + std::to_string(batch));
    std::vector<SimGraphDelta> recorded;  // builder thread only
    ShardedServiceOptions options;
    options.num_shards = 2;
    options.max_batch_events = batch;
    options.delta_observer = [&recorded](const SimGraphDelta& delta) {
      recorded.push_back(delta);
    };
    ShardedService service(ServingSimGraphOptions{}, options);
    ASSERT_TRUE(service.Train(dataset_, protocol_.train_end).ok());
    service.Start();
    // Queue the whole stream behind a stopped builder so that it drains
    // it in full batches once it resumes.
    service.CrashBuilderForTest();
    for (int64_t i = 0; i < num_test_; ++i) service.Publish(TestEvent(i));
    service.RecoverBuilderForTest();
    service.Stop();

    ASSERT_FALSE(recorded.empty());
    int64_t max_events = 0;
    for (const SimGraphDelta& delta : recorded) {
      max_events = std::max(max_events, delta.num_events());
      std::string wire;
      delta.SerializeTo(&wire);
      ASSERT_EQ(static_cast<int64_t>(wire.size()), delta.ByteSize());
      SimGraphDelta parsed;
      ASSERT_TRUE(SimGraphDelta::Parse(wire, &parsed).ok());
      ASSERT_EQ(parsed.deposits.size(), delta.deposits.size());
      for (size_t i = 0; i < delta.deposits.size(); ++i) {
        ASSERT_EQ(parsed.deposits[i].user, delta.deposits[i].user) << i;
        ASSERT_EQ(parsed.deposits[i].tweet, delta.deposits[i].tweet) << i;
        ASSERT_EQ(parsed.deposits[i].score, delta.deposits[i].score) << i;
      }
      ASSERT_EQ(parsed.consumed.size(), delta.consumed.size());
      for (size_t i = 0; i < delta.consumed.size(); ++i) {
        ASSERT_EQ(parsed.consumed[i].user, delta.consumed[i].user) << i;
        ASSERT_EQ(parsed.consumed[i].tweet, delta.consumed[i].tweet) << i;
      }
      ASSERT_EQ(parsed.invalidated, delta.invalidated);
      std::string reserialized;
      parsed.SerializeTo(&reserialized);
      ASSERT_EQ(reserialized, wire);
    }
    EXPECT_EQ(max_events, batch);
  }
}

}  // namespace
}  // namespace serve
}  // namespace simgraph
