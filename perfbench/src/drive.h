#ifndef PERFBENCH_DRIVE_H_
#define PERFBENCH_DRIVE_H_

// The load generator: fences, the paced open loop and the saturate phase
// against one deployment (real processes or the traced in-process host),
// using at most kMaxThreads threads and kMaxConnections connections.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "report.h"
#include "workload.h"

namespace perfbench {

/// Seconds on the steady clock since the first call.
double Now();

struct Endpoints {
  uint16_t server_port = 0;
  uint16_t replica_port = 0;
  /// Processes whose CPU time and peak RSS the run charges (the server
  /// and the replica; the traced host passes its own pid).
  std::vector<int> pids;
};

struct Counts {
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t failed = 0;
};

/// One paced recommend as the client saw it (times from Now()).
struct ReadRecord {
  int conn = 0;
  simgraph::UserId user = 0;
  int32_t k = 0;
  simgraph::Timestamp now = 0;
  double due = 0.0;
  double sent = 0.0;
  double done = 0.0;
  bool ok = false;
  bool cache_hit = false;
  std::vector<simgraph::ScoredTweet> tweets;
};

struct DriveResult {
  /// Paced-phase samples.
  std::vector<double> read_us;   // recommend latency from the scheduled send
  std::vector<double> fresh_ms;  // event due -> wait_applied return
  std::vector<double> lag_ms;    // generator lateness of every paced send
  double read_max_rps = 0.0;     // saturate, read workloads
  double ingest_max_eps = 0.0;   // saturate: ingest_stream's fixed block
  double cpu_us_per_op = 0.0;
  double rss_mb = 0.0;
  int64_t quality_hits = 0;
  int64_t fence_compared = 0;
  int64_t fence_mismatches = 0;
  /// sent/ok/failed per "<phase>.<stream>".
  std::map<std::string, Counts> counts;
  std::vector<ReadRecord> records;  // paced reads, both connections
  double paced_wall_s = 0.0;
  int64_t paced_ops = 0;  // reads + events completed in the paced phase
  std::string error;      // a transport failure that ended the run
};

/// `on_boundary` is called on the driving thread at "paced_begin",
/// "paced_end", "saturate_begin" and "saturate_end".
DriveResult Drive(const Plan& plan, const Endpoints& endpoints,
                  const std::function<void(const char*)>& on_boundary);

/// Adds every end-to-end metric of `result` (names prefixed by `prefix`),
/// the per-phase sent/ok/failed counts and the correctness tallies.
void AddEndToEnd(const Plan& plan, const DriveResult& result,
                 const std::string& prefix, Report* report);

/// CPU seconds of one task ("<pid>/task/<tid>", "self/task/<tid>"), and
/// of all live threads of a process, from /proc schedstat.
double TaskCpuSeconds(const std::string& task);
double ProcCpuSeconds(int pid);

/// Peak resident set (VmHWM) of a process in MB.
double ProcPeakRssMb(int pid);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVE_H_
