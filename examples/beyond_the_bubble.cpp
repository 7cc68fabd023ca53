// The Section 7 extensions in action: topic-enhanced similarity,
// cold-start fallback, and information-bubble escape.
//
// Generates a platform, builds the plain and the topic-blended SimGraph,
// detects information bubbles, and shows how the escape boost changes one
// user's feed.
//
// Run: ./beyond_the_bubble

#include <iostream>
#include <memory>

#include "simgraph/simgraph.h"

int main() {
  using namespace simgraph;

  DatasetConfig config = TinyConfig();
  config.num_users = 1500;
  config.num_tweets = 12000;
  config.base_retweet_prob = 0.8;
  const Dataset dataset = GenerateDataset(config);
  const int64_t train_end = dataset.SplitIndex(0.9);

  // --- 1. topic-enhanced similarity (future work #1) -------------------
  ProfileStore profiles(dataset, train_end);
  TopicProfileStore topics(dataset, train_end);
  SimGraphOptions plain_opts;
  plain_opts.tau = 0.002;
  plain_opts.mode = CandidateMode::kTwoHopBfs;
  const SimGraph plain =
      BuildSimGraph(dataset.follow_graph, profiles, plain_opts);
  HybridSimGraphOptions hybrid_opts;
  hybrid_opts.base = plain_opts;
  hybrid_opts.alpha = 0.3;
  const SimGraph hybrid =
      BuildHybridSimGraph(dataset.follow_graph, profiles, topics, hybrid_opts);
  std::cout << "plain SimGraph:  " << plain.graph.num_edges() << " edges, "
            << plain.NumPresentNodes() << " present users\n"
            << "hybrid (a=0.3):  " << hybrid.graph.num_edges() << " edges, "
            << hybrid.NumPresentNodes()
            << " present users  <- topic blending densifies\n\n";

  // --- 2. cold-start fallback (Section 4.1) ----------------------------
  serve::ServingSimGraphOptions ropts;
  ropts.graph = plain_opts;
  ropts.cold_start_fallback = true;
  serve::SimGraphServingRecommender rec(ropts);
  SIMGRAPH_CHECK_OK(rec.Train(dataset, train_end));
  for (int64_t i = train_end; i < dataset.num_retweets(); ++i) {
    rec.Observe(dataset.retweets[static_cast<size_t>(i)]);
  }
  int64_t cold = 0;
  int64_t cold_served = 0;
  const Timestamp now = dataset.EndTime();
  for (UserId u = 0; u < dataset.num_users(); ++u) {
    if (!rec.IsColdUser(u)) continue;
    ++cold;
    if (!rec.Recommend(u, now, 5).empty()) ++cold_served;
  }
  std::cout << cold << " cold users; " << cold_served
            << " now served via their followees' feeds\n\n";

  // --- 3. bubbles and escape (future work #2) --------------------------
  const std::shared_ptr<const SimGraph> sim_graph = rec.GraphSnapshot();
  const BubbleAssignment bubbles =
      DetectBubbles(sim_graph->graph, BubbleOptions{});
  std::cout << bubbles.num_bubbles << " bubbles on the SimGraph; largest "
            << bubbles.LargestBubble() << " users; intra-bubble edges: "
            << TableWriter::Cell(
                   IntraBubbleEdgeFraction(sim_graph->graph, bubbles))
            << "\n";
  std::vector<UserId> author_of;
  for (const Tweet& t : dataset.tweets) author_of.push_back(t.author);

  // Find a user with a reasonably full feed to demonstrate on.
  for (UserId u = 0; u < dataset.num_users(); ++u) {
    const auto feed = rec.Recommend(u, now, 10);
    if (feed.size() < 5) continue;
    std::cout << "\nuser " << u << " (bubble "
              << bubbles.bubble_of[static_cast<size_t>(u)]
              << "), locality before: "
              << TableWriter::Cell(
                     RecommendationLocality(feed, u, author_of, bubbles));
    const auto escaped =
        EscapeBubbleRescore(feed, u, author_of, bubbles, /*boost=*/0.75);
    const std::vector<ScoredTweet> top(escaped.begin(),
                                       escaped.begin() + 5);
    std::cout << ", after escape boost: "
              << TableWriter::Cell(
                     RecommendationLocality(top, u, author_of, bubbles))
              << "\n";
    break;
  }
  return 0;
}
