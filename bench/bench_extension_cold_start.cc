// Extension bench (paper Section 4.1): cold-start fallback.
//
// About half the users are absent from the SimGraph (no retweets or no
// co-retweeters). The paper sketches a GraphJet-style remedy: serve cold
// users from their neighbourhood's computed recommendations. This bench
// measures the coverage gained.

#include <iostream>

#include "bench/common.h"

int main(int argc, char** argv) {
  using namespace simgraph;
  using namespace simgraph::bench;
  const ObservabilityGuard observability(argc, argv);
  PrintPreamble("Extension: cold-start fallback (Section 4.1)");

  const Dataset& d = BenchDataset();
  const EvalProtocol& protocol = BenchProtocol();

  TableWriter table("Coverage with and without the cold-start fallback");
  table.SetHeader({"fallback", "cold users", "covered warm", "covered cold",
                   "total covered"});
  for (bool fallback : {false, true}) {
    serve::ServingSimGraphOptions ropts;
    ropts.graph = BenchSimGraphOptions();
    ropts.cold_start_fallback = fallback;
    serve::SimGraphServingRecommender rec(ropts);
    SIMGRAPH_CHECK_OK(rec.Train(d, protocol.train_end));
    for (int64_t i = protocol.train_end; i < d.num_retweets(); ++i) {
      rec.Observe(d.retweets[static_cast<size_t>(i)]);
    }
    const Timestamp now = d.EndTime();
    int64_t cold = 0;
    int64_t covered_cold = 0;
    int64_t covered_warm = 0;
    for (UserId u = 0; u < d.num_users(); ++u) {
      const bool is_cold = rec.IsColdUser(u);
      if (is_cold) ++cold;
      if (rec.Recommend(u, now, 10).empty()) continue;
      if (is_cold) {
        ++covered_cold;
      } else {
        ++covered_warm;
      }
    }
    table.AddRow({fallback ? "on" : "off", TableWriter::Cell(cold),
                  TableWriter::Cell(covered_warm),
                  TableWriter::Cell(covered_cold),
                  TableWriter::Cell(covered_warm + covered_cold)});
  }
  table.Print(std::cout);
  std::cout << "expected shape: identical warm coverage; cold coverage goes "
               "from 0 to a sizable fraction of cold users.\n";
  return 0;
}
