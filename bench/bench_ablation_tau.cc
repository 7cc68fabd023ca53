// Ablation: the similarity threshold tau of Definition 4.1.
//
// tau controls the SimGraph density: low tau keeps weak similarity edges
// (bigger graph, more propagation work, more — but noisier — candidates);
// high tau prunes to the strongest ties. The paper picks tau by this
// trade-off; here we expose the full curve: edges, present users, build
// time, and hit quality at k=30.

#include <iostream>

#include "bench/common.h"

int main(int argc, char** argv) {
  using namespace simgraph;
  using namespace simgraph::bench;
  const ObservabilityGuard observability(argc, argv);
  PrintPreamble("Ablation: SimGraph threshold tau");

  const Dataset& d = BenchDataset();
  const EvalProtocol& protocol = BenchProtocol();
  ProfileStore profiles(d, protocol.train_end);

  HarnessOptions hopts;
  hopts.k = 30;

  TableWriter table("tau sweep (density vs quality at k=30)");
  table.SetHeader({"tau", "edges", "present users", "build time", "hits",
                   "F1"});
  for (double tau : {0.0005, 0.001, 0.002, 0.005, 0.01, 0.05}) {
    SimGraphOptions gopts = BenchSimGraphOptions();
    gopts.tau = tau;
    WallTimer build_timer;
    const SimGraph sg = BuildSimGraph(d.follow_graph, profiles, gopts);
    const double build_seconds = build_timer.ElapsedSeconds();

    serve::ServingSimGraphOptions ropts;
    ropts.graph = gopts;
    serve::SimGraphServingRecommender rec(ropts);
    const EvalResult result = RunEvaluation(d, protocol, rec, hopts);
    table.AddRow({TableWriter::Cell(tau),
                  TableWriter::Cell(sg.graph.num_edges()),
                  TableWriter::Cell(sg.NumPresentNodes()),
                  FormatDuration(build_seconds),
                  TableWriter::Cell(result.hits_total),
                  TableWriter::Cell(result.f1)});
  }
  table.Print(std::cout);
  std::cout << "expected shape: density falls monotonically with tau; "
               "quality peaks at a moderate tau and collapses when the "
               "graph over-prunes.\n";
  return 0;
}
