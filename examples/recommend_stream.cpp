// End-to-end streaming recommendation on the synthetic platform.
//
// Generates a microblogging trace, trains the SimGraph recommender on the
// oldest 90% of retweet actions, then streams the remaining actions and
// shows live recommendations for a handful of users — the paper's
// deployment scenario: fresh posts recommended before the user would have
// found them.
//
// Run: ./recommend_stream          (small, a few seconds)
//      SIMGRAPH_USERS=5000 ./recommend_stream

#include <iostream>
#include <memory>

#include "simgraph/simgraph.h"

int main() {
  using namespace simgraph;

  DatasetConfig config = TinyConfig();
  config.num_users =
      static_cast<int32_t>(GetEnvInt64("SIMGRAPH_USERS", 2000));
  config.num_tweets = config.num_users * 8;
  config.base_retweet_prob = 0.8;
  std::cout << "Generating a synthetic platform with " << config.num_users
            << " users...\n";
  const Dataset dataset = GenerateDataset(config);
  std::cout << "  " << dataset.follow_graph.num_edges() << " follow edges, "
            << dataset.num_tweets() << " tweets, " << dataset.num_retweets()
            << " retweet actions over " << config.horizon_days << " days\n\n";

  const int64_t train_end = dataset.SplitIndex(0.9);
  serve::ServingSimGraphOptions options;
  options.graph.tau = 0.002;
  options.propagation.dynamic.enabled = true;  // popularity-aware threshold
  serve::SimGraphServingRecommender recommender(options);

  WallTimer train_timer;
  const Status trained = recommender.Train(dataset, train_end);
  if (!trained.ok()) {
    std::cerr << "training failed: " << trained.ToString() << "\n";
    return 1;
  }
  const std::shared_ptr<const SimGraph> sim_graph =
      recommender.GraphSnapshot();
  std::cout << "Trained in " << FormatDuration(train_timer.ElapsedSeconds())
            << ": SimGraph has " << sim_graph->NumPresentNodes()
            << " present users and " << sim_graph->graph.num_edges()
            << " edges\n\n";

  // Pick the three most active users as our demo audience.
  const std::vector<int32_t> counts = dataset.RetweetCountPerUser();
  std::vector<UserId> audience;
  for (int pick = 0; pick < 3; ++pick) {
    UserId best = 0;
    for (UserId u = 0; u < dataset.num_users(); ++u) {
      if (counts[static_cast<size_t>(u)] > counts[static_cast<size_t>(best)] &&
          std::find(audience.begin(), audience.end(), u) == audience.end()) {
        best = u;
      }
    }
    audience.push_back(best);
  }

  // Stream the test period; print the audience's feeds once per week.
  WallTimer stream_timer;
  int64_t events = 0;
  Timestamp next_report =
      dataset.retweets[static_cast<size_t>(train_end)].time;
  for (int64_t i = train_end; i < dataset.num_retweets(); ++i) {
    const RetweetEvent& e = dataset.retweets[static_cast<size_t>(i)];
    if (e.time >= next_report) {
      std::cout << "--- day " << e.time / kSecondsPerDay << " ---\n";
      for (UserId u : audience) {
        const auto recs = recommender.Recommend(u, e.time, 3);
        std::cout << "  user " << u << " top-3:";
        if (recs.empty()) std::cout << " (nothing fresh)";
        for (const auto& st : recs) {
          std::cout << " tweet#" << st.tweet << " (score "
                    << TableWriter::Cell(st.score) << ")";
        }
        std::cout << "\n";
      }
      next_report = e.time + 7 * kSecondsPerDay;
    }
    recommender.Observe(e);
    ++events;
  }
  std::cout << "\nStreamed " << events << " retweets in "
            << FormatDuration(stream_timer.ElapsedSeconds()) << " ("
            << recommender.num_propagations() << " propagation runs, "
            << FormatDuration(stream_timer.ElapsedSeconds() /
                              static_cast<double>(std::max<int64_t>(1, events)))
            << " per message)\n";
  return 0;
}
