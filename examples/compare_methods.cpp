// Head-to-head comparison of the four recommenders of Section 6 —
// SimGraph, collaborative filtering, GraphJet and Bayesian inference —
// under the paper's evaluation protocol, at one daily budget k.
//
// Run: ./compare_methods            (k = 30)
//      SIMGRAPH_K=100 ./compare_methods

#include <iostream>
#include <memory>

#include "simgraph/simgraph.h"

int main() {
  using namespace simgraph;

  DatasetConfig config = TinyConfig();
  config.num_users = 2500;
  config.num_tweets = 20000;
  config.horizon_days = 60;
  config.base_retweet_prob = 0.8;
  const Dataset dataset = GenerateDataset(config);

  ProtocolOptions popts;
  popts.users_per_class = 150;
  popts.low_max = 3;
  popts.moderate_max = 12;
  const EvalProtocol protocol = MakeProtocol(dataset, popts);
  std::cout << "Panel: " << protocol.low_users.size() << " low / "
            << protocol.moderate_users.size() << " moderate / "
            << protocol.intensive_users.size() << " intensive users; "
            << dataset.num_retweets() - protocol.train_end
            << " test actions\n\n";

  HarnessOptions hopts;
  hopts.k = static_cast<int32_t>(GetEnvInt64("SIMGRAPH_K", 30));

  serve::ServingSimGraphOptions sopts;
  sopts.graph.tau = 0.002;
  std::vector<std::unique_ptr<Recommender>> methods;
  methods.push_back(
      std::make_unique<serve::SimGraphServingRecommender>(sopts));
  methods.push_back(std::make_unique<CfRecommender>());
  methods.push_back(std::make_unique<GraphJetRecommender>());
  methods.push_back(std::make_unique<BayesRecommender>());

  TableWriter table("Method comparison at k = " +
                    std::to_string(hopts.k));
  table.SetHeader({"method", "hits", "recs/day/user", "precision", "recall",
                   "F1", "hit popularity", "advance (h)", "train", "stream"});
  std::vector<EvalResult> results;
  for (auto& method : methods) {
    std::cout << "Evaluating " << method->name() << "...\n";
    results.push_back(RunEvaluation(dataset, protocol, *method, hopts));
    const EvalResult& r = results.back();
    table.AddRow({r.method, TableWriter::Cell(r.hits_total),
                  TableWriter::Cell(r.avg_recs_per_day_user),
                  TableWriter::Cell(r.precision),
                  TableWriter::Cell(r.recall), TableWriter::Cell(r.f1),
                  TableWriter::Cell(r.avg_hit_popularity),
                  TableWriter::Cell(r.avg_advance_seconds / 3600.0),
                  FormatDuration(r.train_seconds),
                  FormatDuration(r.observe_seconds + r.recommend_seconds)});
  }
  std::cout << "\n";
  table.Print(std::cout);

  std::cout << "Hit overlap with SimGraph (Figure 13's sigma):\n";
  for (size_t i = 1; i < results.size(); ++i) {
    std::cout << "  sigma(" << results[i].method << ") = "
              << TableWriter::Cell(HitOverlapRatio(results[0], results[i]))
              << "\n";
  }
  return 0;
}
