// End-to-end integration: generate a trace, run the full evaluation
// pipeline with all four recommenders, and check the cross-method
// invariants the paper's evaluation relies on.

#include <gtest/gtest.h>

#include "simgraph/simgraph.h"

namespace simgraph {
namespace {

struct PipelineResult {
  Dataset dataset;
  EvalProtocol protocol;
  EvalResult simgraph;
  EvalResult cf;
  EvalResult bayes;
  EvalResult graphjet;
};

const PipelineResult& Shared() {
  static const PipelineResult* r = [] {
    auto* out = new PipelineResult();
    DatasetConfig config = TinyConfig();
    config.num_users = 1500;
    config.num_tweets = 12000;
    config.horizon_days = 50;
    // Denser retweet activity than the CI-tiny default so per-method hit
    // counts are large enough for stable cross-method comparisons.
    config.base_retweet_prob = 0.9;
    out->dataset = GenerateDataset(config);

    ProtocolOptions popts;
    popts.users_per_class = 100;
    popts.low_max = 3;
    popts.moderate_max = 12;
    out->protocol = MakeProtocol(out->dataset, popts);

    HarnessOptions hopts;
    hopts.k = 15;

    SimGraphRecommenderOptions sopts;
    sopts.graph.tau = 0.002;
    SimGraphRecommender sim(sopts);
    out->simgraph = RunEvaluation(out->dataset, out->protocol, sim, hopts);

    CfRecommender cf;
    out->cf = RunEvaluation(out->dataset, out->protocol, cf, hopts);

    BayesRecommender bayes;
    out->bayes = RunEvaluation(out->dataset, out->protocol, bayes, hopts);

    GraphJetRecommender graphjet;
    out->graphjet =
        RunEvaluation(out->dataset, out->protocol, graphjet, hopts);
    return out;
  }();
  return *r;
}

TEST(IntegrationTest, AllMethodsProduceRecommendations) {
  const PipelineResult& r = Shared();
  EXPECT_GT(r.simgraph.recommendations_issued, 0);
  EXPECT_GT(r.cf.recommendations_issued, 0);
  EXPECT_GT(r.bayes.recommendations_issued, 0);
  EXPECT_GT(r.graphjet.recommendations_issued, 0);
}

TEST(IntegrationTest, AllMethodsSeeTheSameStream) {
  const PipelineResult& r = Shared();
  EXPECT_EQ(r.simgraph.num_test_events, r.cf.num_test_events);
  EXPECT_EQ(r.simgraph.num_test_events, r.bayes.num_test_events);
  EXPECT_EQ(r.simgraph.num_test_events, r.graphjet.num_test_events);
  EXPECT_EQ(r.simgraph.panel_test_retweets, r.cf.panel_test_retweets);
}

TEST(IntegrationTest, SimGraphScoresHits) {
  const PipelineResult& r = Shared();
  // The headline claim at k=15: SimGraph finds hits and is competitive
  // with (here: at least as good as) the baselines.
  EXPECT_GT(r.simgraph.hits_total, 0);
  EXPECT_GE(r.simgraph.hits_total, r.graphjet.hits_total);
  EXPECT_GE(r.simgraph.hits_total, r.bayes.hits_total);
}

// The paper's quality at this fixed seed is deterministic, so it is
// pinned exactly: a change to any layer that moves a hit shows up here.
// The values were measured at the commit before the flat candidate
// tables replaced the node-based candidate store, and that change kept
// them bit-identical.
TEST(IntegrationTest, QualityIsPinnedAtFixedSeed) {
  const PipelineResult& r = Shared();
  EXPECT_EQ(r.simgraph.hits_total, 59);
  EXPECT_EQ(r.simgraph.f1, 0.011048689138576779);
  EXPECT_EQ(r.cf.hits_total, 50);
  EXPECT_EQ(r.cf.f1, 0.013236267372600927);
  EXPECT_EQ(r.bayes.hits_total, 41);
  EXPECT_EQ(r.bayes.f1, 0.0066017228886563082);
}

TEST(IntegrationTest, HitsDecomposeByClass) {
  for (const EvalResult* r :
       {&Shared().simgraph, &Shared().cf, &Shared().bayes,
        &Shared().graphjet}) {
    EXPECT_EQ(r->hits_total, r->hits_low + r->hits_moderate +
                                 r->hits_intensive);
    EXPECT_EQ(static_cast<int64_t>(r->hits.size()), r->hits_total);
  }
}

TEST(IntegrationTest, F1IsConsistentWithPrecisionRecall) {
  for (const EvalResult* r :
       {&Shared().simgraph, &Shared().cf, &Shared().bayes,
        &Shared().graphjet}) {
    if (r->precision + r->recall > 0.0) {
      EXPECT_NEAR(r->f1, 2.0 * r->precision * r->recall /
                             (r->precision + r->recall),
                  1e-12);
    }
    EXPECT_GE(r->precision, 0.0);
    EXPECT_LE(r->precision, 1.0);
    EXPECT_GE(r->recall, 0.0);
    EXPECT_LE(r->recall, 1.0);
  }
}

TEST(IntegrationTest, HitsAreRealRetweetsPredictedInAdvance) {
  const PipelineResult& r = Shared();
  for (const Hit& h : r.simgraph.hits) {
    EXPECT_LT(h.recommended_at, h.retweeted_at);
    EXPECT_TRUE(r.protocol.InPanel(h.user));
    // The hit must exist as a real test-period retweet.
    bool found = false;
    for (int64_t i = r.protocol.train_end; i < r.dataset.num_retweets();
         ++i) {
      const RetweetEvent& e = r.dataset.retweets[static_cast<size_t>(i)];
      if (e.user == h.user && e.tweet == h.tweet &&
          e.time == h.retweeted_at) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST(IntegrationTest, OverlapRatiosAreValid) {
  const PipelineResult& r = Shared();
  for (const EvalResult* other : {&r.cf, &r.bayes, &r.graphjet}) {
    const double sigma = HitOverlapRatio(r.simgraph, *other);
    EXPECT_GE(sigma, 0.0);
    EXPECT_LE(sigma, 1.0);
  }
  EXPECT_DOUBLE_EQ(HitOverlapRatio(r.simgraph, r.simgraph),
                   r.simgraph.hits.empty() ? 0.0 : 1.0);
}

TEST(IntegrationTest, UpdateStrategiesRunEndToEnd) {
  const PipelineResult& r = Shared();
  const int64_t old_end = r.dataset.SplitIndex(0.9);
  const int64_t new_end = r.dataset.SplitIndex(0.95);
  SimGraphOptions gopts;
  gopts.tau = 0.002;
  for (UpdateStrategy s :
       {UpdateStrategy::kFromScratch, UpdateStrategy::kOldSimGraph,
        UpdateStrategy::kCrossfold, UpdateStrategy::kWeightUpdate}) {
    const SimGraph sg =
        BuildWithStrategy(s, r.dataset, old_end, new_end, gopts);
    EXPECT_GT(sg.graph.num_edges(), 0) << UpdateStrategyName(s);
  }
}

}  // namespace
}  // namespace simgraph
