#ifndef PERFBENCH_TRACED_H_
#define PERFBENCH_TRACED_H_

// The traced run: hosts the deployment under test (2-shard ShardedService
// with a replication fanout, one cache-off replica fed over SGRP) in this
// process, drives it with the same load generator, and times calls into
// each layer's public functions to report the per-layer metrics.

#include <string>

#include "simgraph/simgraph.h"
#include "workload.h"

namespace perfbench {

/// Runs the traced workload and prints its report. `load_s` is how long
/// LoadDataset took. Spans are kept in memory and, when `trace_path` is
/// not empty, written there as a Chrome trace once the run ends. Returns
/// the process exit code.
int RunTraced(const Plan& plan, const simgraph::Dataset& dataset,
              double load_s, const std::string& trace_path);

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_H_
