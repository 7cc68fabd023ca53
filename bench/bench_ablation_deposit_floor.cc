// Ablation: the candidate deposit floor of the SimGraph recommender.
//
// Propagation assigns a probability to every reachable user; depositing
// all of them maximises recall but floods the candidate store with
// vanishing scores, hurting precision. The floor trades the two: this
// sweep exposes the full curve at k = 30 (complements the beta/gamma
// threshold ablations of Section 5.4, which gate the propagation itself).

#include <iostream>

#include "bench/common.h"

int main(int argc, char** argv) {
  using namespace simgraph;
  using namespace simgraph::bench;
  const ObservabilityGuard observability(argc, argv);
  PrintPreamble("Ablation: propagation-score deposit floor");

  const Dataset& d = BenchDataset();
  const EvalProtocol& protocol = BenchProtocol();

  TableWriter table("deposit floor sweep at k = 30");
  table.SetHeader({"floor", "hits", "capacity (recs/day/user)", "precision",
                   "F1"});
  for (double floor : {0.0, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3}) {
    serve::ServingSimGraphOptions opts;
    opts.graph = BenchSimGraphOptions();
    opts.propagation.dynamic.enabled = true;
    opts.min_deposit_score = floor;
    serve::SimGraphServingRecommender rec(opts);
    SweepOptions sopts;
    sopts.k_grid = {30};
    const std::vector<EvalResult> r =
        RunSweepEvaluation(d, protocol, rec, sopts);
    table.AddRow({TableWriter::Cell(floor),
                  TableWriter::Cell(r[0].hits_total),
                  TableWriter::Cell(r[0].avg_recs_per_day_user),
                  TableWriter::Cell(r[0].precision),
                  TableWriter::Cell(r[0].f1)});
  }
  table.Print(std::cout);
  std::cout << "expected shape: hits fall and precision rises "
               "monotonically with the floor; F1 peaks in between.\n";
  return 0;
}
