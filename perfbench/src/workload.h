#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// Workload definitions and everything derived from the workload seed: the
// evaluation panel, the request schedules and user mix; plus what the
// fixed dataset gives: the event stream and the future-retweet index the
// quality count uses.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "simgraph/simgraph.h"

namespace perfbench {

/// Users in the generated dataset. At the bench default of 6,000 users
/// the test stream is ~3.4k events and drains in ~3 s; 30,000 users give
/// ~17k test events, enough for every phase of every workload.
inline constexpr int64_t kUsers = 30000;
/// The dataset is the same for every run seed (bench/common.cc's default
/// seed): per-seed datasets moved set-up time, memory and quality between
/// seeds far more than any change under test would.
inline constexpr uint64_t kDatasetSeed = 42;

/// Deployment under test, identical for every workload.
inline constexpr int32_t kShards = 2;
inline constexpr int64_t kRefreshEvents = 2000;
inline constexpr int32_t kFenceK = 30;

/// Test events published flat out before the first fence, untimed, so
/// candidate state, caches and the quality count start warm.
inline constexpr int64_t kWarmupEvents = 2000;

/// Generator limits, asserted at startup.
inline constexpr int kMaxThreads = 4;
inline constexpr int kMaxConnections = 4;

/// Fixed pipeline depth of each reader connection in `saturate`.
inline constexpr int kSaturateDepth = 16;
/// Distinct requests each reader connection cycles through closed-loop.
inline constexpr int kSaturateRequests = 1 << 16;
/// How far the flat-out publisher may run ahead of full acknowledgement.
inline constexpr int64_t kSaturateEventWindow = 256;
/// Flat-out ingest publishes a fixed block of the stream: the events a
/// deployment acknowledging this many per second gets through in the
/// saturate phase. Every run then times the same events.
inline constexpr double kNominalIngestEps = 700.0;
/// A flat-out block that takes longer than this many times the saturate
/// phase is cut off and the run is invalid.
inline constexpr double kFlatOutCap = 4.0;

enum class UserMix {
  kPanelZipf,    // Zipf-skewed over the evaluation panel
  kAllUniform,   // uniform over every user
};

enum class Saturate {
  kReads,   // reader connections closed-loop, events stay paced
  kEvents,  // publisher flat out, reads stay paced
};

struct WorkloadSpec {
  /// Paced read rate summed over both reader connections (req/s).
  double read_rate = 0.0;
  /// Paced event rate (events/s).
  double event_rate = 0.0;
  UserMix users = UserMix::kPanelZipf;
  /// Draw k from the paper's grid {10..200}; otherwise k = 30.
  bool k_grid = false;
  /// Publish on the stream's own (compressed) timestamps instead of a
  /// fixed rate.
  bool stream_timing = false;
  Saturate saturate = Saturate::kReads;
  /// Share of --seconds spent in the paced phase; the rest is `saturate`.
  double paced_share = 0.5;
  /// Paced read rate beside flat-out ingest (req/s), when events saturate.
  double saturate_read_rate = 0.0;
};

/// The three workloads; false when `name` is not one of them.
bool LookupWorkload(const std::string& name, WorkloadSpec* spec);

/// The dataset: bench/common.cc's BenchConfig shape at kUsers users.
simgraph::DatasetConfig BenchDatasetConfig();

/// The paper's evaluation panel options (bench/common.cc).
simgraph::ProtocolOptions BenchPanelOptions(uint64_t seed);

/// One read request of a schedule.
struct ReadOp {
  simgraph::UserId user = 0;
  int32_t k = 30;
};

/// Everything a run needs, derived from the dataset and the seed.
struct Plan {
  WorkloadSpec spec;
  int64_t train_end = 0;
  simgraph::Timestamp split_time = 0;
  std::vector<simgraph::UserId> panel;
  /// The test stream: dataset.retweets[train_end, end).
  std::vector<simgraph::RetweetEvent> stream;
  /// Due times (s from paced-phase start) by stream index: -1 for the
  /// warm-up prefix, then the paced events. Covers `saturate` too unless
  /// events saturate it.
  std::vector<double> event_due;
  /// Stream positions of the two fences: after the warm-up, and after
  /// the events due inside the paced phase.
  int64_t warmup_end = 0;
  int64_t paced_end = 0;
  /// Events published flat out when events saturate:
  /// stream[paced_end, paced_end + flat_out_events).
  int64_t flat_out_events = 0;
  /// Per reader connection: due times and requests of the paced reads
  /// (through `saturate` too unless reads saturate it).
  std::vector<std::vector<double>> read_due;
  std::vector<std::vector<ReadOp>> reads;
  /// Requests the reader connections cycle through when closed-loop.
  std::vector<std::vector<ReadOp>> saturate_reads;
  double paced_seconds = 0.0;
  double saturate_seconds = 0.0;
  /// (user << 32 | tweet) -> index in `stream` of that retweet.
  std::unordered_map<uint64_t, int64_t> future;

  /// Stream edge at paced offset `t`: time of the last event due at or
  /// before t (split_time when none).
  simgraph::Timestamp EdgeAt(double t) const;
};

Plan MakePlan(const WorkloadSpec& spec, uint64_t seed,
              const simgraph::Dataset& dataset, double seconds);

inline uint64_t PairKey(simgraph::UserId user, simgraph::TweetId tweet) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(user)) << 32) |
         static_cast<uint64_t>(static_cast<uint32_t>(tweet));
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
