// Section 5.4 ablations: how the propagation optimisations trade work for
// score coverage.
//
//   1. static threshold beta: sweep beta and measure updates performed and
//      users reached per propagation;
//   2. dynamic threshold gamma(t): sweep the Hill parameters (k, p) and
//      compare work on unpopular vs popular tweets;
//   3. postponed computation delta: sweep the batching interval and count
//      propagation runs over the test stream.

#include <iostream>

#include "bench/common.h"

int main(int argc, char** argv) {
  using namespace simgraph;
  using namespace simgraph::bench;
  const ObservabilityGuard observability(argc, argv);
  PrintPreamble("Section 5.4 ablations: propagation thresholds");

  const Dataset& d = BenchDataset();
  const int64_t split = d.SplitIndex(0.9);
  ProfileStore profiles(d, split);
  const SimGraph sg =
      BuildSimGraph(d.follow_graph, profiles, BenchSimGraphOptions());
  Propagator propagator(sg);

  // Seed sets: the 50 most popular tweets.
  std::unordered_map<TweetId, std::vector<UserId>> seeds_by_tweet;
  for (const RetweetEvent& e : d.retweets) {
    seeds_by_tweet[e.tweet].push_back(e.user);
  }
  std::vector<std::pair<size_t, TweetId>> ranked;
  for (const auto& [t, seeds] : seeds_by_tweet) {
    if (seeds.size() >= 2) ranked.emplace_back(seeds.size(), t);
  }
  std::sort(ranked.rbegin(), ranked.rend());
  ranked.resize(std::min<size_t>(ranked.size(), 50));

  // --- 1. static beta -------------------------------------------------
  TableWriter beta_table(
      "Ablation 1: static threshold beta (work vs coverage)");
  beta_table.SetHeader({"beta", "total updates", "total users reached",
                        "avg iterations"});
  for (double beta : {0.0, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1}) {
    PropagationOptions opts;
    opts.beta = beta;
    int64_t updates = 0;
    int64_t reached = 0;
    int64_t iterations = 0;
    for (const auto& [pop, tweet] : ranked) {
      const PropagationResult r = propagator.Propagate(
          seeds_by_tweet[tweet], static_cast<int64_t>(pop), opts);
      updates += r.updates;
      reached += static_cast<int64_t>(r.scores.size());
      iterations += r.iterations;
    }
    beta_table.AddRow({TableWriter::Cell(beta), TableWriter::Cell(updates),
                       TableWriter::Cell(reached),
                       TableWriter::Cell(static_cast<double>(iterations) /
                                         static_cast<double>(ranked.size()))});
  }
  beta_table.Print(std::cout);

  // --- 2. dynamic gamma(t) --------------------------------------------
  TableWriter gamma_table(
      "Ablation 2: dynamic gamma(t) = m^p/(k^p+m^p) (popular tweets are "
      "throttled, fresh ones propagate eagerly)");
  gamma_table.SetHeader({"k", "p", "updates (unpopular half)",
                         "updates (popular half)"});
  for (const auto& [k_param, p_param] :
       std::vector<std::pair<double, double>>{
           {10.0, 1.0}, {10.0, 2.0}, {50.0, 2.0}, {200.0, 2.0}}) {
    PropagationOptions opts;
    opts.dynamic.enabled = true;
    opts.dynamic.k = k_param;
    opts.dynamic.p = p_param;
    opts.dynamic_scale = 0.05;
    int64_t updates_unpopular = 0;
    int64_t updates_popular = 0;
    for (size_t i = 0; i < ranked.size(); ++i) {
      const auto& [pop, tweet] = ranked[i];
      const PropagationResult r = propagator.Propagate(
          seeds_by_tweet[tweet], static_cast<int64_t>(pop), opts);
      if (i < ranked.size() / 2) {
        updates_popular += r.updates;  // ranked descending by popularity
      } else {
        updates_unpopular += r.updates;
      }
    }
    gamma_table.AddRow({TableWriter::Cell(k_param),
                        TableWriter::Cell(p_param),
                        TableWriter::Cell(updates_unpopular),
                        TableWriter::Cell(updates_popular)});
  }
  gamma_table.Print(std::cout);

  // --- 3. postponed delta ----------------------------------------------
  TableWriter delta_table(
      "Ablation 3: postponed computation delta (propagation runs over the "
      "test stream; quality at k=30)");
  delta_table.SetHeader({"delta", "propagation runs", "hits@30", "F1@30"});
  const EvalProtocol& protocol = BenchProtocol();
  for (Timestamp delta :
       {Timestamp{0}, 1 * kSecondsPerHour, 6 * kSecondsPerHour,
        24 * kSecondsPerHour}) {
    serve::ServingSimGraphOptions ropts;
    ropts.graph = BenchSimGraphOptions();
    ropts.postpone_delta = delta;
    serve::SimGraphServingRecommender recommender(ropts);
    HarnessOptions hopts;
    hopts.k = 30;
    const EvalResult result = RunEvaluation(d, protocol, recommender, hopts);
    delta_table.AddRow({FormatDuration(static_cast<double>(delta)),
                        TableWriter::Cell(recommender.num_propagations()),
                        TableWriter::Cell(result.hits_total),
                        TableWriter::Cell(result.f1)});
  }
  delta_table.Print(std::cout);
  return 0;
}
