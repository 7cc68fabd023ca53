// Extension bench (paper Section 7, future work #2): information bubbles.
//
// Detects bubbles on the SimGraph with label propagation, measures how
// local SimGraph recommendations are (fraction of recommended posts whose
// author sits in the user's own bubble), and shows the effect of the
// escape-boost rescoring on that locality.

#include <iostream>
#include <memory>

#include "bench/common.h"

int main(int argc, char** argv) {
  using namespace simgraph;
  using namespace simgraph::bench;
  const ObservabilityGuard observability(argc, argv);
  PrintPreamble("Extension: information bubbles (Section 7)");

  const Dataset& d = BenchDataset();
  const EvalProtocol& protocol = BenchProtocol();

  serve::ServingSimGraphOptions ropts;
  ropts.graph = BenchSimGraphOptions();
  serve::SimGraphServingRecommender rec(ropts);
  SIMGRAPH_CHECK_OK(rec.Train(d, protocol.train_end));
  for (int64_t i = protocol.train_end; i < d.num_retweets(); ++i) {
    rec.Observe(d.retweets[static_cast<size_t>(i)]);
  }

  const std::shared_ptr<const SimGraph> sim_graph = rec.GraphSnapshot();
  const BubbleAssignment bubbles =
      DetectBubbles(sim_graph->graph, BubbleOptions{});
  std::vector<int64_t> sizes = bubbles.BubbleSizes();
  std::sort(sizes.rbegin(), sizes.rend());
  std::cout << "bubbles detected: " << bubbles.num_bubbles
            << "; largest: " << bubbles.LargestBubble()
            << "; intra-bubble edge fraction: "
            << TableWriter::Cell(
                   IntraBubbleEdgeFraction(sim_graph->graph, bubbles))
            << "\n";
  std::cout << "top bubble sizes:";
  for (size_t i = 0; i < std::min<size_t>(sizes.size(), 8); ++i) {
    std::cout << " " << sizes[i];
  }
  std::cout << "\n\n";

  std::vector<UserId> author_of;
  author_of.reserve(d.tweets.size());
  for (const Tweet& t : d.tweets) author_of.push_back(t.author);

  const Timestamp now = d.EndTime();
  TableWriter table("Recommendation locality with and without escape boost");
  table.SetHeader({"boost", "avg locality", "users measured"});
  for (double boost : {0.0, 0.25, 0.5, 1.0}) {
    double locality_sum = 0.0;
    int64_t measured = 0;
    for (UserId u : protocol.panel) {
      const auto raw = rec.Recommend(u, now, 20);
      if (raw.empty()) continue;
      const auto rescored =
          EscapeBubbleRescore(raw, u, author_of, bubbles, boost);
      // Locality of the top-10 after rescoring.
      std::vector<ScoredTweet> top(
          rescored.begin(),
          rescored.begin() + std::min<size_t>(rescored.size(), 10));
      locality_sum += RecommendationLocality(top, u, author_of, bubbles);
      ++measured;
    }
    table.AddRow({TableWriter::Cell(boost),
                  TableWriter::Cell(measured > 0
                                        ? locality_sum /
                                              static_cast<double>(measured)
                                        : 0.0),
                  TableWriter::Cell(measured)});
  }
  table.Print(std::cout);
  std::cout << "expected shape: locality falls as the escape boost grows — "
               "the Section 7 'escape from information locality'.\n";
  return 0;
}
