#ifndef SIMGRAPH_BENCH_COMMON_H_
#define SIMGRAPH_BENCH_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "simgraph/simgraph.h"

namespace simgraph {
namespace bench {

/// The shared experiment configuration. Scaled for a single-core box;
/// override with environment variables:
///   SIMGRAPH_BENCH_USERS   (default 6000)
///   SIMGRAPH_BENCH_TWEETS  (default 8x users)
///   SIMGRAPH_BENCH_SEED    (default 42)
///   SIMGRAPH_BENCH_CACHE   (default /tmp/simgraph_bench; empty disables)
DatasetConfig BenchConfig();

/// SimGraph construction parameters used across the evaluation benches.
SimGraphOptions BenchSimGraphOptions();

/// Panel options matching the paper's 3 x 500 protocol, scaled.
ProtocolOptions BenchProtocolOptions();

/// SimGraph as the evaluation sweep (Figures 7-15, Table 5) runs it.
std::unique_ptr<Recommender> MakeBenchSimGraph();

/// The daily-budget grid of Figures 7-15.
std::vector<int32_t> KGrid();

/// Lazily generated dataset shared by every experiment in this process.
const Dataset& BenchDataset();

/// The evaluation split/panel for BenchDataset().
const EvalProtocol& BenchProtocol();

/// One method's k-sweep.
struct MethodSweep {
  std::string method;
  std::vector<EvalResult> per_k;
};

/// Sweeps all four methods over KGrid(), caching results on disk (keyed by
/// the configuration) so the six figure binaries share one run.
const std::vector<MethodSweep>& EvalSweeps();

/// Accepts "--flag=VALUE" among argv; returns VALUE or "" when absent.
std::string FlagValue(int argc, char** argv, const std::string& flag);

/// Prints a standard experiment preamble (dataset shape, split, panel).
void PrintPreamble(const std::string& experiment);

/// Observability flags shared by every bench binary. Construct first in
/// main():
///
///   int main(int argc, char** argv) {
///     const bench::ObservabilityGuard observability(argc, argv);
///     ...
///   }
///
/// Recognised (also via environment variables, for harnesses that cannot
/// pass flags):
///   --metrics-json=PATH  (env SIMGRAPH_METRICS_JSON)  enable the metrics
///       registry and dump the JSON snapshot to PATH on exit;
///   --trace-json=PATH    (env SIMGRAPH_TRACE_JSON)    enable trace spans
///       and export Chrome trace JSON to PATH on exit.
/// Unrecognised arguments are ignored (google-benchmark binaries parse
/// their own). See docs/observability.md for the output formats.
class ObservabilityGuard {
 public:
  ObservabilityGuard(int argc, char** argv);
  /// Writes the requested dumps; failures are reported on stderr.
  ~ObservabilityGuard();

  ObservabilityGuard(const ObservabilityGuard&) = delete;
  ObservabilityGuard& operator=(const ObservabilityGuard&) = delete;

  const std::string& metrics_path() const { return metrics_path_; }
  const std::string& trace_path() const { return trace_path_; }

 private:
  std::string metrics_path_;
  std::string trace_path_;
};

}  // namespace bench
}  // namespace simgraph

#endif  // SIMGRAPH_BENCH_COMMON_H_
