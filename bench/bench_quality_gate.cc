// Exact quality gate: re-runs SimGraph's k-sweep on the bench trace and
// compares hits, precision, recall and F1 per k with a committed
// snapshot, bit for bit.
//
//   bench_quality_gate --out=BENCH_quality.json    # write the snapshot
//   bench_quality_gate --check=BENCH_quality.json  # exit 1 on any change
//
// The sweep is deterministic, so any difference in either direction —
// better or worse — means the algorithm changed and fails the check.
// It never reads or writes the EvalSweeps() disk cache. Run it on the
// default trace (6000 users, seed 42); the snapshot records the trace
// shape, so a different SIMGRAPH_BENCH_* environment fails loudly.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.h"

namespace {

// %.17g round-trips every double, so equal text means equal bits.
std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace simgraph;
  using namespace simgraph::bench;
  const std::string out_path = FlagValue(argc, argv, "out");
  const std::string check_path = FlagValue(argc, argv, "check");
  if (out_path.empty() == check_path.empty()) {
    std::cerr << "usage: bench_quality_gate --out=PATH | --check=PATH\n";
    return 2;
  }

  const Dataset& dataset = BenchDataset();
  const DatasetConfig config = BenchConfig();
  std::unique_ptr<Recommender> simgraph = MakeBenchSimGraph();
  SweepOptions sopts;
  sopts.k_grid = KGrid();
  const std::vector<EvalResult> sweep = RunSweepEvaluation(
      dataset, BenchProtocol(), *simgraph, sopts);

  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"quality\",\n"
       << "  \"method\": \"" << simgraph->name() << "\",\n"
       << "  \"dataset\": {\"users\": " << dataset.num_users()
       << ", \"tweets\": " << dataset.num_tweets()
       << ", \"retweets\": " << dataset.num_retweets()
       << ", \"seed\": " << config.seed << "},\n"
       << "  \"per_k\": {\n";
  for (size_t i = 0; i < sweep.size(); ++i) {
    const EvalResult& r = sweep[i];
    json << "    \"" << r.k << "\": {\"hits\": " << r.hits_total
         << ", \"precision\": " << Number(r.precision)
         << ", \"recall\": " << Number(r.recall)
         << ", \"f1\": " << Number(r.f1) << "}"
         << (i + 1 < sweep.size() ? "," : "") << "\n";
  }
  json << "  }\n}\n";
  const std::string actual = json.str();

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << actual;
    if (!out) {
      std::cerr << "bench_quality_gate: cannot write " << out_path << "\n";
      return 1;
    }
    std::cout << actual;
    return 0;
  }

  std::ifstream in(check_path);
  if (!in) {
    std::cerr << "bench_quality_gate: cannot read " << check_path << "\n";
    return 1;
  }
  std::stringstream expected;
  expected << in.rdbuf();
  if (expected.str() == actual) {
    std::cout << "quality gate: " << sweep.size()
              << " budgets match " << check_path << " exactly\n";
    return 0;
  }
  const std::vector<std::string> want = Lines(expected.str());
  const std::vector<std::string> got = Lines(actual);
  std::cout << "quality gate FAILED: the sweep differs from " << check_path
            << "\n";
  for (size_t i = 0; i < std::max(want.size(), got.size()); ++i) {
    const std::string w = i < want.size() ? want[i] : "<missing>";
    const std::string g = i < got.size() ? got[i] : "<missing>";
    if (w == g) continue;
    std::cout << "  expected: " << w << "\n"
              << "  actual:   " << g << "\n";
  }
  return 1;
}
