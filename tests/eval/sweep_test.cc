#include "eval/sweep.h"

#include <gtest/gtest.h>

#include "baselines/cf_recommender.h"
#include "serve/simgraph_serving_recommender.h"
#include "dataset/generator.h"

namespace simgraph {
namespace {

struct Fixture {
  Dataset dataset;
  EvalProtocol protocol;
};

const Fixture& Shared() {
  static const Fixture* f = [] {
    auto* fx = new Fixture();
    DatasetConfig c = TinyConfig();
    c.num_users = 1000;
    c.num_tweets = 8000;
    c.base_retweet_prob = 0.8;
    fx->dataset = GenerateDataset(c);
    ProtocolOptions popts;
    popts.users_per_class = 80;
    popts.low_max = 3;
    popts.moderate_max = 12;
    fx->protocol = MakeProtocol(fx->dataset, popts);
    return fx;
  }();
  return *f;
}

TEST(SweepTest, SingleKMatchesDedicatedRun) {
  const Fixture& f = Shared();
  serve::ServingSimGraphOptions opts;
  opts.graph.tau = 0.002;

  serve::SimGraphServingRecommender rec_sweep(opts);
  SweepOptions sopts;
  sopts.k_grid = {20};
  sopts.recommendation_period = kSecondsPerDay;  // match the harness default
  const std::vector<EvalResult> sweep =
      RunSweepEvaluation(f.dataset, f.protocol, rec_sweep, sopts);
  ASSERT_EQ(sweep.size(), 1u);

  serve::SimGraphServingRecommender rec_single(opts);
  HarnessOptions hopts;
  hopts.k = 20;
  const EvalResult single =
      RunEvaluation(f.dataset, f.protocol, rec_single, hopts);

  EXPECT_EQ(sweep[0].hits_total, single.hits_total);
  EXPECT_EQ(sweep[0].hits_low, single.hits_low);
  EXPECT_EQ(sweep[0].hits_moderate, single.hits_moderate);
  EXPECT_EQ(sweep[0].hits_intensive, single.hits_intensive);
  EXPECT_EQ(sweep[0].distinct_recommendations,
            single.distinct_recommendations);
  EXPECT_EQ(sweep[0].recommendations_issued, single.recommendations_issued);
  EXPECT_DOUBLE_EQ(sweep[0].f1, single.f1);
  EXPECT_DOUBLE_EQ(sweep[0].avg_advance_seconds, single.avg_advance_seconds);
}

TEST(SweepTest, MetricsAreMonotoneInK) {
  const Fixture& f = Shared();
  CfRecommender rec;
  SweepOptions sopts;
  sopts.k_grid = {5, 10, 20, 40, 80};
  const std::vector<EvalResult> sweep =
      RunSweepEvaluation(f.dataset, f.protocol, rec, sopts);
  ASSERT_EQ(sweep.size(), 5u);
  for (size_t g = 1; g < sweep.size(); ++g) {
    // A bigger budget can only add recommendations and hits.
    EXPECT_GE(sweep[g].hits_total, sweep[g - 1].hits_total);
    EXPECT_GE(sweep[g].recommendations_issued,
              sweep[g - 1].recommendations_issued);
    EXPECT_GE(sweep[g].distinct_recommendations,
              sweep[g - 1].distinct_recommendations);
    EXPECT_GE(sweep[g].avg_recs_per_day_user,
              sweep[g - 1].avg_recs_per_day_user);
  }
}

TEST(SweepTest, GridOrderDoesNotMatter) {
  const Fixture& f = Shared();
  CfRecommender rec_a;
  SweepOptions fwd;
  fwd.k_grid = {10, 40};
  const auto a = RunSweepEvaluation(f.dataset, f.protocol, rec_a, fwd);
  CfRecommender rec_b;
  SweepOptions rev;
  rev.k_grid = {40, 10};
  const auto b = RunSweepEvaluation(f.dataset, f.protocol, rec_b, rev);
  // Results come back sorted by k either way.
  ASSERT_EQ(a.size(), 2u);
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(a[0].k, 10);
  EXPECT_EQ(b[0].k, 10);
  EXPECT_EQ(a[0].hits_total, b[0].hits_total);
  EXPECT_EQ(a[1].hits_total, b[1].hits_total);
}

TEST(SweepTest, HitsCarryValidTimestamps) {
  const Fixture& f = Shared();
  CfRecommender rec;
  SweepOptions sopts;
  sopts.k_grid = {30};
  const auto sweep = RunSweepEvaluation(f.dataset, f.protocol, rec, sopts);
  for (const Hit& h : sweep[0].hits) {
    EXPECT_LT(h.recommended_at, h.retweeted_at);
    EXPECT_TRUE(f.protocol.InPanel(h.user));
  }
}

}  // namespace
}  // namespace simgraph
