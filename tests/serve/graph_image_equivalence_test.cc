#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "dataset/config.h"
#include "dataset/generator.h"
#include "eval/protocol.h"
#include "serve/sharded_service.h"
#include "serve/simgraph_serving_recommender.h"
#include "store/graph_image.h"
#include "store/snapshot_writer.h"

namespace simgraph {
namespace serve {
namespace {

// The tentpole acceptance test of the graph-image serving path: an
// 8-shard service whose follow graph comes from ONE shared mmap'd SGCS
// image (the dataset itself carries no in-RAM graph) must answer
// bit-identically to an 8-shard service trained from the classic
// in-RAM Digraph, across the whole streamed test window.
class GraphImageEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatasetConfig config = TinyConfig();
    config.seed = 271828;
    dataset_ = GenerateDataset(config);
    protocol_ = MakeProtocol(dataset_, ProtocolOptions{});
    num_test_ = dataset_.num_retweets() - protocol_.train_end;
    ASSERT_GT(num_test_, 10);
    sample_.assign(protocol_.panel.begin(),
                   protocol_.panel.begin() +
                       std::min<size_t>(protocol_.panel.size(), 48));

    // One file per test: ctest runs this fixture's tests as parallel
    // processes, and a shared path lets one test's TearDown delete the
    // image another is loading.
    const std::string test =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    image_path_ = ::testing::TempDir() + "/serve_equiv_" + test + ".sgcs";
    ASSERT_TRUE(
        store::WriteDigraphSnapshot(dataset_.follow_graph, image_path_).ok());
    StatusOr<std::shared_ptr<const store::GraphImage>> image =
        store::GraphImage::Load(image_path_);
    ASSERT_TRUE(image.ok()) << image.status().ToString();
    image_ = *image;
    ASSERT_EQ(image_->num_nodes(), dataset_.num_users());
    ASSERT_EQ(image_->num_edges(), dataset_.follow_graph.num_edges());
  }

  void TearDown() override { std::remove(image_path_.c_str()); }

  /// The dataset as an image-backed deployment sees it: tweets and
  /// retweets only, population carried by the hint, NO in-RAM graph.
  Dataset StrippedDataset() const {
    Dataset stripped;
    stripped.tweets = dataset_.tweets;
    stripped.retweets = dataset_.retweets;
    stripped.num_users_hint = dataset_.num_users();
    return stripped;
  }

  const RetweetEvent& TestEvent(int64_t i) const {
    return dataset_.retweets[static_cast<size_t>(protocol_.train_end + i)];
  }

  Dataset dataset_;
  EvalProtocol protocol_;
  std::vector<UserId> sample_;
  int64_t num_test_ = 0;
  std::string image_path_;
  std::shared_ptr<const store::GraphImage> image_;
};

TEST_F(GraphImageEquivalenceTest, EightShardImageServiceMatchesInRamService) {
  ServingSimGraphOptions ram_options;
  ram_options.snapshot_refresh_events = 16;  // exercise epoch swaps too
  ServingSimGraphOptions image_options = ram_options;
  image_options.graph_image = image_;

  ShardedServiceOptions options;
  options.num_shards = 8;
  options.shard_options.cache_ttl = 0;
  ShardedService ram_service(ram_options, options);
  ShardedService image_service(image_options, options);

  // One image per process: the test handle, the local options copy and
  // the builder source. The applier shards hold no image: deltas carry
  // everything they replay.
  EXPECT_EQ(image_.use_count(), 1 + 1 + 1);

  const Dataset stripped = StrippedDataset();
  ASSERT_EQ(stripped.follow_graph.num_nodes(), 0);
  ASSERT_TRUE(ram_service.Train(dataset_, protocol_.train_end).ok());
  ASSERT_TRUE(image_service.Train(stripped, protocol_.train_end).ok());
  ram_service.Start();
  image_service.Start();

  std::vector<int64_t> checkpoints;
  for (int i = 1; i <= 3; ++i) checkpoints.push_back(num_test_ * i / 3);
  int64_t published = 0;
  for (const int64_t checkpoint : checkpoints) {
    uint64_t seq = 0;
    while (published < checkpoint) {
      const RetweetEvent& e = TestEvent(published);
      seq = ram_service.Publish(e);
      const uint64_t image_seq = image_service.Publish(e);
      EXPECT_EQ(seq, image_seq);
      ++published;
    }
    ram_service.WaitForApplied(seq);
    image_service.WaitForApplied(seq);

    const Timestamp now = TestEvent(published - 1).time;
    for (const UserId user : sample_) {
      const RecommendResponse expected =
          ram_service.Recommend({user, now, 10});
      const RecommendResponse actual =
          image_service.Recommend({user, now, 10});
      ASSERT_TRUE(expected.status.ok());
      ASSERT_TRUE(actual.status.ok());
      ASSERT_EQ(actual.tweets.size(), expected.tweets.size())
          << "user " << user;
      for (size_t j = 0; j < expected.tweets.size(); ++j) {
        EXPECT_EQ(actual.tweets[j].tweet, expected.tweets[j].tweet)
            << "user " << user;
        // Bit-identical, not merely close: both services run the same
        // update over the same adjacency, image-decoded or not.
        EXPECT_EQ(actual.tweets[j].score, expected.tweets[j].score)
            << "user " << user;
      }
    }
    const BackendStats expected_stats = ram_service.Stats();
    const BackendStats actual_stats = image_service.Stats();
    EXPECT_EQ(actual_stats.graph_epoch, expected_stats.graph_epoch);
    EXPECT_EQ(actual_stats.graph_edges, expected_stats.graph_edges);
  }
  EXPECT_GT(image_service.Stats().graph_epoch, 1u);  // swaps happened

  ram_service.Stop();
  image_service.Stop();
}

TEST_F(GraphImageEquivalenceTest, TrainRejectsPopulationMismatch) {
  ServingSimGraphOptions image_options;
  image_options.graph_image = image_;
  ShardedServiceOptions options;
  options.num_shards = 2;
  ShardedService service(image_options, options);

  Dataset wrong = StrippedDataset();
  wrong.num_users_hint = dataset_.num_users() + 7;
  const Status status = service.Train(wrong, protocol_.train_end);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(GraphImageEquivalenceTest, StrippedDatasetStillValidates) {
  // Dataset::Validate checks event user ids against num_users(), which
  // an image-backed dataset reports through the hint.
  EXPECT_TRUE(StrippedDataset().Validate().ok());
  Dataset broken = StrippedDataset();
  broken.num_users_hint = 1;  // events now reference out-of-range users
  EXPECT_FALSE(broken.Validate().ok());
}

}  // namespace
}  // namespace serve
}  // namespace simgraph
