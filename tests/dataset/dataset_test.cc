#include "dataset/dataset.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

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

// The fingerprint covers every field CandidateState::Init reads — the
// population, each tweet's time and the training retweets' (tweet,
// user) — and nothing else.
TEST(DatasetTest, TrainingFingerprintCoversWhatTrainingReads) {
  const Dataset d = TinyTrace();
  const int64_t train_end = 2;
  const uint64_t base = TrainingFingerprint(d, train_end);
  EXPECT_NE(base, 0u);
  EXPECT_NE(TrainingFingerprint(d, 1), base);

  Dataset other = TinyTrace();
  other.tweets[1].time = 201;
  EXPECT_NE(TrainingFingerprint(other, train_end), base);

  other = TinyTrace();
  other.retweets[1].user = 1;
  EXPECT_NE(TrainingFingerprint(other, train_end), base);

  other = TinyTrace();
  other.retweets[1].tweet = 1;
  EXPECT_NE(TrainingFingerprint(other, train_end), base);

  other = TinyTrace();
  other.follow_graph = GraphBuilder(4).Build();
  EXPECT_NE(TrainingFingerprint(other, train_end), base);

  // Not read by training: retweet times, authors, topics and the test
  // retweets past train_end.
  other = TinyTrace();
  other.retweets[0].time = 151;
  other.tweets[0].author = 2;
  other.tweets[0].topic = 3;
  other.retweets[2].user = 2;
  EXPECT_EQ(TrainingFingerprint(other, train_end), base);
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
  // SaveDataset -> LoadDataset is the identity, field by field.
  const Dataset d = GenerateDataset(TinyConfig());
  const std::string dir = ::testing::TempDir() + "/simgraph_gen_roundtrip";
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(SaveDataset(d, dir).ok());
  StatusOr<Dataset> loaded = LoadDataset(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::filesystem::remove_all(dir);

  const Digraph& g = loaded->follow_graph;
  ASSERT_EQ(g.num_nodes(), d.follow_graph.num_nodes());
  ASSERT_EQ(g.num_edges(), d.follow_graph.num_edges());
  EXPECT_EQ(g.has_weights(), d.follow_graph.has_weights());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto out = g.OutNeighbors(u);
    const auto want_out = d.follow_graph.OutNeighbors(u);
    ASSERT_EQ(std::vector<NodeId>(out.begin(), out.end()),
              std::vector<NodeId>(want_out.begin(), want_out.end()));
    const auto in = g.InNeighbors(u);
    const auto want_in = d.follow_graph.InNeighbors(u);
    ASSERT_EQ(std::vector<NodeId>(in.begin(), in.end()),
              std::vector<NodeId>(want_in.begin(), want_in.end()));
  }
  ASSERT_EQ(loaded->num_tweets(), d.num_tweets());
  for (size_t i = 0; i < d.tweets.size(); ++i) {
    const Tweet& a = loaded->tweets[i];
    const Tweet& b = d.tweets[i];
    ASSERT_EQ(a.id, b.id) << i;
    ASSERT_EQ(a.author, b.author) << i;
    ASSERT_EQ(a.time, b.time) << i;
    ASSERT_EQ(a.topic, b.topic) << i;
  }
  ASSERT_EQ(loaded->num_retweets(), d.num_retweets());
  for (size_t i = 0; i < d.retweets.size(); ++i) {
    const RetweetEvent& a = loaded->retweets[i];
    const RetweetEvent& b = d.retweets[i];
    ASSERT_EQ(a.tweet, b.tweet) << i;
    ASSERT_EQ(a.user, b.user) << i;
    ASSERT_EQ(a.time, b.time) << i;
  }
  EXPECT_EQ(loaded->num_users_hint, d.num_users_hint);
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

TEST(DatasetTest, LoadRejectsNonNumericToken) {
  const Status tweets =
      LoadWithReplacedFile(::testing::TempDir() + "/simgraph_nan_tweets",
                           "tweets.txt", "2\n0 100 1\n0 abc 2\n");
  EXPECT_EQ(tweets.code(), StatusCode::kIoError) << tweets.ToString();
  const Status retweets =
      LoadWithReplacedFile(::testing::TempDir() + "/simgraph_nan_rt",
                           "retweets.txt", "1\n0 1 150s\n");
  EXPECT_EQ(retweets.code(), StatusCode::kIoError) << retweets.ToString();
  const Status header =
      LoadWithReplacedFile(::testing::TempDir() + "/simgraph_nan_header",
                           "retweets.txt", "three\n0 1 150\n");
  EXPECT_EQ(header.code(), StatusCode::kIoError) << header.ToString();
}

TEST(DatasetTest, LoadRejectsTrailingPartialRecord) {
  // The last record stops after two of its three fields.
  const Status tweets =
      LoadWithReplacedFile(::testing::TempDir() + "/simgraph_partial_tweets",
                           "tweets.txt", "2\n0 100 1\n0 200");
  EXPECT_EQ(tweets.code(), StatusCode::kIoError) << tweets.ToString();
  const Status retweets =
      LoadWithReplacedFile(::testing::TempDir() + "/simgraph_partial_rt",
                           "retweets.txt", "2\n0 1 150\n0 2\n");
  EXPECT_EQ(retweets.code(), StatusCode::kIoError) << retweets.ToString();
}

TEST(DatasetTest, LoadRejectsInt32OverflowInUserFields) {
  // Authors and retweeting users are 32-bit ids; 2^31 does not fit.
  const Status author =
      LoadWithReplacedFile(::testing::TempDir() + "/simgraph_big_author",
                           "tweets.txt", "2\n2147483648 100 1\n0 200 2\n");
  EXPECT_EQ(author.code(), StatusCode::kIoError) << author.ToString();
  const Status user = LoadWithReplacedFile(
      ::testing::TempDir() + "/simgraph_big_user", "retweets.txt",
      "3\n0 1 150\n0 4294967297 160\n1 1 250\n");
  EXPECT_EQ(user.code(), StatusCode::kIoError) << user.ToString();
}

TEST(DatasetTest, LoadRejectsLeadingPlusSign) {
  // Fields parse with std::from_chars, which takes no '+' sign.
  const Status status =
      LoadWithReplacedFile(::testing::TempDir() + "/simgraph_plus_rt",
                           "retweets.txt", "1\n0 +1 150\n");
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
}

TEST(DatasetTest, LoadAcceptsCrlfLineEndings) {
  const std::string dir = ::testing::TempDir() + "/simgraph_crlf";
  std::filesystem::create_directories(dir);
  const auto write = [&](const std::string& file, const std::string& text) {
    std::ofstream out(dir + "/" + file, std::ios::binary);
    out << text;
  };
  write("graph.txt", "3 2 0\r\n1 0\r\n2 0\r\n");
  write("tweets.txt", "2\r\n0 100 1\r\n0 200 2\r\n");
  write("retweets.txt", "3\r\n0 1 150\r\n0 2 160\r\n1 1 250\r\n");
  StatusOr<Dataset> loaded = LoadDataset(dir);
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Dataset want = TinyTrace();
  EXPECT_EQ(loaded->follow_graph.num_edges(), 2);
  EXPECT_TRUE(loaded->follow_graph.HasEdge(1, 0));
  EXPECT_TRUE(loaded->follow_graph.HasEdge(2, 0));
  ASSERT_EQ(loaded->num_tweets(), want.num_tweets());
  EXPECT_EQ(loaded->tweets[1].time, 200);
  EXPECT_EQ(loaded->tweets[1].topic, 2);
  ASSERT_EQ(loaded->num_retweets(), want.num_retweets());
  EXPECT_EQ(loaded->retweets[2].tweet, 1);
  EXPECT_EQ(loaded->retweets[2].user, 1);
  EXPECT_EQ(loaded->retweets[2].time, 250);
}

}  // namespace
}  // namespace simgraph

