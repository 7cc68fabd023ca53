// Figure 16: number of hits under the four SimGraph maintenance
// strategies. The paper builds the graph at 90% and evaluates the last 5%;
// at 1/350th of its scale that window carries too little drift to separate
// the strategies, so we stale the graph harder — built at 70%, evaluated
// over the last 10% — which reproduces the figure's *ordering* rather
// than its absolute staleness.
//
// Paper shape: from-scratch is best; crossfold tracks it almost exactly
// at a fraction of the cost; old-SimGraph and weights-only-update overlap
// each other below them (topology matters more than edge weights).

#include <iostream>

#include "bench/common.h"

int main(int argc, char** argv) {
  using namespace simgraph;
  using namespace simgraph::bench;
  const ObservabilityGuard observability(argc, argv);
  PrintPreamble("Figure 16: update strategies");

  const Dataset& d = BenchDataset();
  const int64_t old_end = d.SplitIndex(0.70);

  ProtocolOptions popts = BenchProtocolOptions();
  popts.train_fraction = 0.90;
  const EvalProtocol protocol = MakeProtocol(d, popts);

  HarnessOptions hopts;
  hopts.k = 30;

  TableWriter table(
      "Figure 16: hits over the last 5% (paper: from-scratch ~ crossfold > "
      "old ~ updated)");
  table.SetHeader({"strategy", "edges", "hits", "F1", "graph build time"});
  for (UpdateStrategy strategy :
       {UpdateStrategy::kFromScratch, UpdateStrategy::kOldSimGraph,
        UpdateStrategy::kCrossfold, UpdateStrategy::kWeightUpdate}) {
    WallTimer build_timer;
    const SimGraph graph = BuildWithStrategy(strategy, d, old_end,
                                             protocol.train_end,
                                             BenchSimGraphOptions());
    const double build_seconds = build_timer.ElapsedSeconds();

    serve::ServingSimGraphOptions ropts;
    ropts.graph = BenchSimGraphOptions();
    serve::UpdateStrategyRecommender recommender(strategy, old_end, ropts);
    const EvalResult result = RunEvaluation(d, protocol, recommender, hopts);
    table.AddRow({std::string(UpdateStrategyName(strategy)),
                  TableWriter::Cell(graph.graph.num_edges()),
                  TableWriter::Cell(result.hits_total),
                  TableWriter::Cell(result.f1),
                  FormatDuration(build_seconds)});
  }
  table.Print(std::cout);
  return 0;
}
