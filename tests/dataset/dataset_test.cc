#include "dataset/dataset.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "dataset/generator.h"
#include "graph/graph_builder.h"

namespace simgraph {
namespace {

// A hand-built 3-user, 2-tweet trace.
Dataset TinyTrace() {
  Dataset d;
  GraphBuilder b(3);
  b.AddEdge(1, 0);  // 1 follows 0
  b.AddEdge(2, 0);
  d.follow_graph = b.Build();
  d.tweets = {
      Tweet{0, /*author=*/0, /*time=*/100, /*topic=*/1},
      Tweet{1, /*author=*/0, /*time=*/200, /*topic=*/2},
  };
  d.retweets = {
      RetweetEvent{0, 1, 150},
      RetweetEvent{0, 2, 160},
      RetweetEvent{1, 1, 250},
  };
  return d;
}

TEST(DatasetTest, ValidTraceValidates) {
  EXPECT_TRUE(TinyTrace().Validate().ok());
}

TEST(DatasetTest, CountsPerTweetAndUser) {
  const Dataset d = TinyTrace();
  const auto per_tweet = d.RetweetCountPerTweet();
  EXPECT_EQ(per_tweet[0], 2);
  EXPECT_EQ(per_tweet[1], 1);
  const auto per_user = d.RetweetCountPerUser();
  EXPECT_EQ(per_user[0], 0);
  EXPECT_EQ(per_user[1], 2);
  EXPECT_EQ(per_user[2], 1);
}

TEST(DatasetTest, SplitIndex) {
  const Dataset d = TinyTrace();
  EXPECT_EQ(d.SplitIndex(0.0), 0);
  EXPECT_EQ(d.SplitIndex(1.0), 3);
  EXPECT_EQ(d.SplitIndex(0.67), 2);
}

TEST(DatasetTest, EndTime) {
  const Dataset d = TinyTrace();
  EXPECT_EQ(d.EndTime(), 250);
}

TEST(DatasetTest, ValidateRejectsUnsortedRetweets) {
  Dataset d = TinyTrace();
  std::swap(d.retweets[0], d.retweets[2]);
  EXPECT_FALSE(d.Validate().ok());
}

TEST(DatasetTest, ValidateRejectsRetweetBeforeTweet) {
  Dataset d = TinyTrace();
  d.retweets[0].time = 50;  // tweet 0 published at 100
  EXPECT_FALSE(d.Validate().ok());
}

TEST(DatasetTest, ValidateRejectsSelfRetweet) {
  Dataset d = TinyTrace();
  d.retweets[0].user = 0;  // author of tweet 0
  EXPECT_FALSE(d.Validate().ok());
}

TEST(DatasetTest, ValidateRejectsDuplicatePair) {
  Dataset d = TinyTrace();
  d.retweets.push_back(RetweetEvent{0, 1, 300});  // user 1 again on tweet 0
  EXPECT_FALSE(d.Validate().ok());
}

TEST(DatasetTest, ValidateRejectsBadTweetIds) {
  Dataset d = TinyTrace();
  d.tweets[1].id = 5;
  EXPECT_FALSE(d.Validate().ok());
}

TEST(DatasetTest, SaveLoadRoundTrip) {
  const Dataset d = TinyTrace();
  const std::string dir = ::testing::TempDir() + "/simgraph_dataset_test";
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(SaveDataset(d, dir).ok());
  StatusOr<Dataset> loaded = LoadDataset(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_users(), d.num_users());
  EXPECT_EQ(loaded->num_tweets(), d.num_tweets());
  EXPECT_EQ(loaded->num_retweets(), d.num_retweets());
  EXPECT_EQ(loaded->tweets[1].topic, 2);
  EXPECT_EQ(loaded->retweets[2].time, 250);
  std::filesystem::remove_all(dir);
}

TEST(DatasetTest, LoadMissingDirFails) {
  StatusOr<Dataset> loaded = LoadDataset("/nonexistent/simgraph");
  EXPECT_FALSE(loaded.ok());
}

TEST(DatasetTest, GeneratedRoundTripPreservesEverything) {
  const Dataset d = GenerateDataset(TinyConfig());
  const std::string dir = ::testing::TempDir() + "/simgraph_gen_roundtrip";
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(SaveDataset(d, dir).ok());
  StatusOr<Dataset> loaded = LoadDataset(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->follow_graph.num_edges(), d.follow_graph.num_edges());
  EXPECT_EQ(loaded->num_retweets(), d.num_retweets());
  EXPECT_TRUE(loaded->Validate().ok());
  std::filesystem::remove_all(dir);
}

TEST(DatasetTest, LoadRejectsCorruptTweets) {
  const Dataset d = TinyTrace();
  const std::string dir = ::testing::TempDir() + "/simgraph_corrupt_tweets";
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(SaveDataset(d, dir).ok());
  {
    std::ofstream out(dir + "/tweets.txt");
    out << "2\n0 100\n";  // missing topic column, truncated
  }
  EXPECT_FALSE(LoadDataset(dir).ok());
  std::filesystem::remove_all(dir);
}

TEST(DatasetTest, LoadRejectsCorruptRetweets) {
  const Dataset d = TinyTrace();
  const std::string dir = ::testing::TempDir() + "/simgraph_corrupt_rt";
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(SaveDataset(d, dir).ok());
  {
    std::ofstream out(dir + "/retweets.txt");
    out << "5\n0 1 150\n";  // claims 5 events, holds 1
  }
  EXPECT_FALSE(LoadDataset(dir).ok());
  std::filesystem::remove_all(dir);
}

TEST(DatasetTest, LoadRevalidatesInvariants) {
  // A syntactically fine file with a semantic violation (retweet before
  // the tweet) must be rejected by the Validate pass inside Load.
  const Dataset d = TinyTrace();
  const std::string dir = ::testing::TempDir() + "/simgraph_semantic";
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(SaveDataset(d, dir).ok());
  {
    std::ofstream out(dir + "/retweets.txt");
    out << "1\n0 1 5\n";  // tweet 0 published at t=100, retweet at t=5
  }
  EXPECT_FALSE(LoadDataset(dir).ok());
  std::filesystem::remove_all(dir);
}

// Saves TinyTrace to `dir`, replaces `file` with `contents` and returns
// what LoadDataset makes of it.
Status LoadWithReplacedFile(const std::string& dir, const std::string& file,
                            const std::string& contents) {
  std::filesystem::create_directories(dir);
  SIMGRAPH_RETURN_IF_ERROR(SaveDataset(TinyTrace(), dir));
  {
    std::ofstream out(dir + "/" + file);
    out << contents;
  }
  const Status status = LoadDataset(dir).status();
  std::filesystem::remove_all(dir);
  return status;
}

TEST(DatasetTest, LoadRejectsHostileGraphNodeCount) {
  // 10^12 nodes does not fit a NodeId; it must not reach GraphBuilder.
  const Status status =
      LoadWithReplacedFile(::testing::TempDir() + "/simgraph_hostile_graph",
                           "graph.txt", "1000000000000 0 0\n");
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
}

TEST(DatasetTest, LoadRejectsHostileTweetCount) {
  // The count is checked against the file size before anything is sized.
  const Status status =
      LoadWithReplacedFile(::testing::TempDir() + "/simgraph_hostile_tweets",
                           "tweets.txt", "999999999999999\n0 100 1\n");
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
}

TEST(DatasetTest, LoadRejectsHostileRetweetCount) {
  const Status status =
      LoadWithReplacedFile(::testing::TempDir() + "/simgraph_hostile_rt",
                           "retweets.txt", "999999999999999\n0 1 150\n");
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
}

}  // namespace
}  // namespace simgraph

