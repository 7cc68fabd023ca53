// Extension bench (paper Section 7, future work #1): topic-enhanced
// similarity ("topic tweets").
//
// Compares the plain SimGraph against the hybrid topic-blended SimGraph
// across alpha values: graph density, coverage of small users, and hit
// counts at k=30. The paper's expectation: blending topics densifies the
// graph and "enhances results for small users".

#include <iostream>
#include <memory>

#include "bench/common.h"

int main(int argc, char** argv) {
  using namespace simgraph;
  using namespace simgraph::bench;
  const ObservabilityGuard observability(argc, argv);
  PrintPreamble("Extension: topic-enhanced similarity (Section 7)");

  const Dataset& d = BenchDataset();
  const EvalProtocol& protocol = BenchProtocol();
  ProfileStore profiles(d, protocol.train_end);
  TopicProfileStore topics(d, protocol.train_end);

  HarnessOptions hopts;
  hopts.k = 30;

  // A recommender whose Train swaps in the hybrid graph.
  class HybridRecommender : public serve::SimGraphServingRecommender {
   public:
    HybridRecommender(double alpha, serve::ServingSimGraphOptions options)
        : serve::SimGraphServingRecommender(options),
          alpha_(alpha),
          options_(options) {}
    std::string name() const override { return "SimGraph+topics"; }
    Status Train(const Dataset& dataset, int64_t train_end) override {
      SIMGRAPH_RETURN_IF_ERROR(
          serve::SimGraphServingRecommender::Train(dataset, train_end));
      if (alpha_ > 0.0) {
        ProfileStore p(dataset, train_end);
        TopicProfileStore t(dataset, train_end);
        HybridSimGraphOptions hopts;
        hopts.base = options_.graph;
        hopts.alpha = alpha_;
        ReplaceSimGraph(BuildHybridSimGraph(dataset.follow_graph, p, t, hopts));
      }
      return Status::Ok();
    }

   private:
    double alpha_;
    serve::ServingSimGraphOptions options_;
  };

  TableWriter table("Topic blending: density, coverage, quality (k=30)");
  table.SetHeader({"alpha", "edges", "present users", "hits", "hits (low)",
                   "F1"});
  for (double alpha : {0.0, 0.15, 0.3}) {
    serve::ServingSimGraphOptions ropts;
    ropts.graph = BenchSimGraphOptions();
    // Same gating as the main evaluation sweep; the hybrid graph is much
    // denser, so the thresholds matter for runtime too.
    ropts.propagation.dynamic.enabled = true;
    ropts.min_deposit_score = 3e-5;
    // The hybrid builder explores the 2-hop ball exhaustively; keep the
    // same tau for a fair density comparison.
    HybridRecommender rec(alpha, ropts);
    const EvalResult result = RunEvaluation(d, protocol, rec, hopts);
    const std::shared_ptr<const SimGraph> sim_graph = rec.GraphSnapshot();
    table.AddRow({TableWriter::Cell(alpha),
                  TableWriter::Cell(sim_graph->graph.num_edges()),
                  TableWriter::Cell(sim_graph->NumPresentNodes()),
                  TableWriter::Cell(result.hits_total),
                  TableWriter::Cell(result.hits_low),
                  TableWriter::Cell(result.f1)});
  }
  table.Print(std::cout);
  std::cout << "expected shape: density and small-user coverage grow with "
               "alpha.\n";
  return 0;
}
