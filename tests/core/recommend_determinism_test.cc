#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/bayes_recommender.h"
#include "baselines/cf_recommender.h"
#include "baselines/graphjet_recommender.h"
#include "core/recommender.h"
#include "serve/simgraph_serving_recommender.h"
#include "dataset/config.h"
#include "dataset/generator.h"
#include "eval/protocol.h"

namespace simgraph {
namespace {

/// Enforces the determinism contract documented on Recommender::Recommend
/// for all four evaluated systems: descending score, score ties broken by
/// ascending tweet id, and prefix consistency across k on identical state.
///
/// Because Recommend() may mutate internal state (GraphJet resamples its
/// random walks per call), each probe uses a freshly trained and replayed
/// instance instead of calling Recommend twice on one object.
class RecommendDeterminismTest
    : public ::testing::TestWithParam<std::string> {
 protected:
  static std::unique_ptr<Recommender> Make(const std::string& name) {
    if (name == "SimGraph") {
      return std::make_unique<serve::SimGraphServingRecommender>();
    }
    if (name == "CF") return std::make_unique<CfRecommender>();
    if (name == "Bayes") return std::make_unique<BayesRecommender>();
    return std::make_unique<GraphJetRecommender>();
  }

  /// Builds an instance, trains it, and replays the full test stream.
  std::unique_ptr<Recommender> FreshReplayedInstance() {
    std::unique_ptr<Recommender> rec = Make(GetParam());
    EXPECT_TRUE(rec->Train(dataset_, protocol_.train_end).ok());
    for (int64_t i = protocol_.train_end; i < dataset_.num_retweets(); ++i) {
      rec->Observe(dataset_.retweets[static_cast<size_t>(i)]);
    }
    return rec;
  }

  void SetUp() override {
    DatasetConfig config = TinyConfig();
    config.seed = 8061;
    dataset_ = GenerateDataset(config);
    protocol_ = MakeProtocol(dataset_, ProtocolOptions{});
    now_ = dataset_.retweets.back().time;
  }

  Dataset dataset_;
  EvalProtocol protocol_;
  Timestamp now_ = 0;
};

TEST_P(RecommendDeterminismTest, OutputsAreTotallyOrdered) {
  std::unique_ptr<Recommender> rec = FreshReplayedInstance();
  int64_t nonempty = 0;
  for (const UserId user : protocol_.panel) {
    const std::vector<ScoredTweet> list = rec->Recommend(user, now_, 20);
    for (size_t j = 1; j < list.size(); ++j) {
      const ScoredTweet& prev = list[j - 1];
      const ScoredTweet& cur = list[j];
      EXPECT_TRUE(prev.score > cur.score ||
                  (prev.score == cur.score && prev.tweet < cur.tweet))
          << rec->name() << " user " << user << " position " << j << ": ("
          << prev.tweet << ", " << prev.score << ") before (" << cur.tweet
          << ", " << cur.score << ")";
    }
    if (!list.empty()) ++nonempty;
  }
  EXPECT_GT(nonempty, 0) << rec->name() << " returned only empty lists";
}

TEST_P(RecommendDeterminismTest, SmallerKIsPrefixOfLargerK) {
  // Twin instances driven identically; one asked for k=5, one for k=20.
  // With the tie-break contract the top-5 must be the first 5 of the
  // top-20 — a strict prefix, not just the same set.
  std::unique_ptr<Recommender> small = FreshReplayedInstance();
  std::unique_ptr<Recommender> large = FreshReplayedInstance();
  int64_t compared = 0;
  for (const UserId user : protocol_.panel) {
    const std::vector<ScoredTweet> five = small->Recommend(user, now_, 5);
    const std::vector<ScoredTweet> twenty = large->Recommend(user, now_, 20);
    ASSERT_LE(five.size(), twenty.size()) << user;
    for (size_t j = 0; j < five.size(); ++j) {
      EXPECT_EQ(five[j].tweet, twenty[j].tweet)
          << small->name() << " user " << user << " position " << j;
      EXPECT_DOUBLE_EQ(five[j].score, twenty[j].score)
          << small->name() << " user " << user << " position " << j;
    }
    if (!five.empty()) ++compared;
  }
  EXPECT_GT(compared, 0) << small->name() << " compared only empty lists";
}

INSTANTIATE_TEST_SUITE_P(AllMethods, RecommendDeterminismTest,
                         ::testing::Values("SimGraph", "CF", "Bayes",
                                           "GraphJet"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace simgraph
