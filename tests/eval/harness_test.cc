#include "eval/harness.h"

#include <gtest/gtest.h>

#include "util/logging.h"

#include "core/recommender.h"
#include "serve/simgraph_serving_recommender.h"
#include "dataset/generator.h"
#include "graph/graph_builder.h"

namespace simgraph {
namespace {

// A deterministic fake recommender: after Train it recommends a fixed
// tweet to everyone until that tweet is observed as consumed.
class OracleRecommender : public Recommender {
 public:
  explicit OracleRecommender(TweetId tweet) : tweet_(tweet) {}

  std::string name() const override { return "Oracle"; }

  Status Train(const Dataset& dataset, int64_t train_end) override {
    (void)dataset;
    (void)train_end;
    trained_ = true;
    return Status::Ok();
  }

  void Observe(const RetweetEvent& event) override { observed_.push_back(event); }

  std::vector<ScoredTweet> Recommend(UserId user, Timestamp now,
                                     int32_t k) override {
    (void)user;
    (void)now;
    (void)k;
    if (!trained_) return {};
    return {ScoredTweet{tweet_, 1.0}};
  }

  std::vector<RetweetEvent> observed_;

 private:
  TweetId tweet_;
  bool trained_ = false;
};

// A recommender that never recommends anything.
class SilentRecommender : public Recommender {
 public:
  std::string name() const override { return "Silent"; }
  Status Train(const Dataset&, int64_t) override { return Status::Ok(); }
  void Observe(const RetweetEvent&) override {}
  std::vector<ScoredTweet> Recommend(UserId, Timestamp, int32_t) override {
    return {};
  }
};

// Two-user trace: user 0 retweets tweet 0 in the test period, exactly one
// day after the split.
Dataset MakeTrace() {
  Dataset d;
  GraphBuilder b(3);
  b.AddEdge(0, 2);
  b.AddEdge(1, 2);
  d.follow_graph = b.Build();
  d.tweets = {Tweet{0, 2, 0, 0}, Tweet{1, 2, 0, 0}};
  // 10 training events on tweet 1 by user 1 are impossible (one per user);
  // instead: train = 1 event, test = 1 event.
  d.retweets = {
      RetweetEvent{1, 1, kSecondsPerDay / 2},       // training
      RetweetEvent{0, 0, 2 * kSecondsPerDay + 10},  // test
  };
  SIMGRAPH_CHECK_OK(d.Validate());
  return d;
}

EvalProtocol ManualProtocol(const Dataset& d) {
  EvalProtocol p;
  p.train_end = 1;
  p.split_time = d.retweets[0].time;
  p.low_users = {0, 1};
  p.panel = {0, 1};
  return p;
}

TEST(HarnessTest, OracleScoresAHit) {
  const Dataset d = MakeTrace();
  const EvalProtocol p = ManualProtocol(d);
  OracleRecommender oracle(/*tweet=*/0);
  HarnessOptions opts;
  opts.k = 5;
  const EvalResult r = RunEvaluation(d, p, oracle, opts);
  EXPECT_EQ(r.hits_total, 1);
  EXPECT_EQ(r.hits_low, 1);
  EXPECT_EQ(r.hits_moderate, 0);
  ASSERT_EQ(r.hits.size(), 1u);
  EXPECT_EQ(r.hits[0].user, 0);
  EXPECT_EQ(r.hits[0].tweet, 0);
  EXPECT_LT(r.hits[0].recommended_at, r.hits[0].retweeted_at);
  EXPECT_GT(r.avg_advance_seconds, 0.0);
  EXPECT_EQ(r.panel_test_retweets, 1);
  EXPECT_DOUBLE_EQ(r.recall, 1.0);
  EXPECT_GT(r.f1, 0.0);
}

TEST(HarnessTest, WrongTweetIsNoHit) {
  const Dataset d = MakeTrace();
  const EvalProtocol p = ManualProtocol(d);
  OracleRecommender oracle(/*tweet=*/1);
  HarnessOptions opts;
  opts.k = 5;
  const EvalResult r = RunEvaluation(d, p, oracle, opts);
  EXPECT_EQ(r.hits_total, 0);
  EXPECT_DOUBLE_EQ(r.recall, 0.0);
  EXPECT_DOUBLE_EQ(r.f1, 0.0);
}

TEST(HarnessTest, SilentRecommenderHasNoRecommendations) {
  const Dataset d = MakeTrace();
  const EvalProtocol p = ManualProtocol(d);
  SilentRecommender silent;
  HarnessOptions opts;
  opts.k = 5;
  const EvalResult r = RunEvaluation(d, p, silent, opts);
  EXPECT_EQ(r.recommendations_issued, 0);
  EXPECT_EQ(r.distinct_recommendations, 0);
  EXPECT_DOUBLE_EQ(r.avg_recs_per_day_user, 0.0);
  EXPECT_EQ(r.hits_total, 0);
  EXPECT_DOUBLE_EQ(r.precision, 0.0);
}

TEST(HarnessTest, AllTestEventsAreObserved) {
  const Dataset d = MakeTrace();
  const EvalProtocol p = ManualProtocol(d);
  OracleRecommender oracle(0);
  HarnessOptions opts;
  opts.k = 5;
  RunEvaluation(d, p, oracle, opts);
  ASSERT_EQ(oracle.observed_.size(), 1u);
  EXPECT_EQ(oracle.observed_[0].tweet, 0);
}

TEST(HarnessTest, CapacityCountsIssuedSlots) {
  const Dataset d = MakeTrace();
  const EvalProtocol p = ManualProtocol(d);
  OracleRecommender oracle(0);
  HarnessOptions opts;
  opts.k = 5;
  const EvalResult r = RunEvaluation(d, p, oracle, opts);
  // Oracle proposes exactly 1 recommendation per user per period.
  EXPECT_DOUBLE_EQ(r.avg_recs_per_day_user, 1.0);
  EXPECT_GT(r.num_recommend_calls, 0);
  // Both users kept being recommended the same tweet: 1 distinct each.
  EXPECT_EQ(r.distinct_recommendations, 2);
}

TEST(HarnessTest, TimingsArePopulated) {
  const Dataset d = MakeTrace();
  const EvalProtocol p = ManualProtocol(d);
  OracleRecommender oracle(0);
  HarnessOptions opts;
  opts.k = 5;
  const EvalResult r = RunEvaluation(d, p, oracle, opts);
  EXPECT_GE(r.train_seconds, 0.0);
  EXPECT_GE(r.observe_seconds, 0.0);
  EXPECT_GE(r.recommend_seconds, 0.0);
  EXPECT_EQ(r.num_test_events, 1);
}

TEST(HarnessTest, HitOverlapRatio) {
  EvalResult a;
  a.hits = {Hit{0, 5, 0, 1}, Hit{1, 6, 0, 1}, Hit{2, 7, 0, 1}};
  EvalResult b;
  b.hits = {Hit{0, 5, 0, 2}, Hit{9, 9, 0, 2}};
  // b's hits found by a: (0,5) yes, (9,9) no -> 0.5.
  EXPECT_DOUBLE_EQ(HitOverlapRatio(a, b), 0.5);
  // Empty b.
  EvalResult empty;
  EXPECT_DOUBLE_EQ(HitOverlapRatio(a, empty), 0.0);
  // Self-overlap is 1.
  EXPECT_DOUBLE_EQ(HitOverlapRatio(a, a), 1.0);
}

TEST(HarnessTest, EndToEndWithRealRecommender) {
  // Smoke test on a generated trace with the SimGraph system.
  const Dataset d = GenerateDataset(TinyConfig());
  ProtocolOptions popts;
  popts.users_per_class = 40;
  popts.low_max = 3;
  popts.moderate_max = 10;
  const EvalProtocol p = MakeProtocol(d, popts);
  serve::ServingSimGraphOptions ropts;
  ropts.graph.tau = 0.001;
  serve::SimGraphServingRecommender rec(ropts);
  HarnessOptions hopts;
  hopts.k = 10;
  const EvalResult r = RunEvaluation(d, p, rec, hopts);
  EXPECT_EQ(r.method, "SimGraph");
  EXPECT_GT(r.num_test_events, 0);
  EXPECT_GE(r.hits_total, 0);
  EXPECT_EQ(r.hits_total,
            r.hits_low + r.hits_moderate + r.hits_intensive);
  EXPECT_EQ(static_cast<int64_t>(r.hits.size()), r.hits_total);
}

}  // namespace
}  // namespace simgraph
