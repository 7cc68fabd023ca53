// Start-up report shared by the two server binaries (simgraph_served,
// simgraph_shard_server): one "startup:" line on stderr and two gauges,
// so the process itself says where a slow start went — loading (or
// generating) the dataset, Train, and the total from main() to the
// listening socket.
#ifndef SIMGRAPH_TOOLS_STARTUP_REPORT_H_
#define SIMGRAPH_TOOLS_STARTUP_REPORT_H_

#include <iostream>

#include "util/metrics.h"

namespace simgraph {

inline void ReportStartup(double load_s, double train_s, double total_s) {
  SIMGRAPH_GAUGE_SET("serve.startup.load_seconds", load_s);
  SIMGRAPH_GAUGE_SET("serve.startup.train_seconds", train_s);
  std::cerr << "startup: load_s=" << load_s << " train_s=" << train_s
            << " total_s=" << total_s << std::endl;
}

}  // namespace simgraph

#endif  // SIMGRAPH_TOOLS_STARTUP_REPORT_H_
