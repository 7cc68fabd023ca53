#ifndef SIMGRAPH_SERVE_DELTA_BUILDER_H_
#define SIMGRAPH_SERVE_DELTA_BUILDER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/simgraph_delta.h"
#include "serve/service.h"
#include "serve/shard_router.h"
#include "serve/simgraph_serving_recommender.h"
#include "util/mpmc_queue.h"

namespace simgraph {
namespace serve {

struct DeltaBuilderOptions {
  /// Capacity of the global ingestion queue; Publish blocks when full
  /// (backpressure propagates to publishers, exactly as on an unsharded
  /// service).
  int64_t queue_capacity = 4096;
  /// Upper bound of events folded into one delta. After popping the
  /// first event the builder opportunistically drains up to this many
  /// queued events into the same delta, so a backlog amortises the
  /// per-delta fan-out cost. 1 disables batching.
  int64_t max_batch_events = 16;
  /// Test/replication tap: called on the builder thread with every
  /// finalised delta before it is split for fan-out — always the full
  /// delta (the wire-format equivalence test serialises from here, and
  /// ReplicationFanout ships it to remote replicas).
  std::function<void(const SimGraphDelta&)> delta_observer;
};

/// Splits a finished delta into one sub-delta per shard of `router`.
/// Sub-delta s holds the consumed marks, deposits and invalidated users
/// of the users ShardOf maps to s, in recorded order, and copies the
/// header (seq range, graph_edges, snapshot_epoch, flags,
/// evict_before). With one shard the full delta ships unchanged.
/// Ops on different users never interact (CandidateState), so a shard
/// replaying its sub-delta ends in exactly the state the full delta
/// leaves for its own users.
std::vector<std::shared_ptr<const SimGraphDelta>> SplitDeltaByShard(
    const SimGraphDelta& delta, const ShardRouter& router);

/// The single-writer stage of the delta-shipping ingest pipeline
/// (docs/ingest.md). One builder thread owns the global event queue:
///
///   publishers --> [global queue] --> BuildLoop --> shard 0..N-1 queues
///
/// The loop pops an event batch, runs the incremental SimGraph update
/// ONCE on the source recommender while recording a SimGraphDelta,
/// splits the finished delta by owning shard (SplitDeltaByShard) and
/// hands each shard its own part — a shard replays and stores only the
/// users it serves. There is no mutex around the fan-out: this one
/// thread is the only shard publisher, so per-shard queue order is
/// preserved by construction.
///
/// Sequence numbers: the global queue's push ticket + 1 is THE global
/// sequence number returned by Publish; the single consumer pops in
/// ticket order, so it re-derives each event's number by counting.
/// Fan-out stamps the delta's seq_end on every shard's part, and shards
/// jump their applied counter to it: each shard's applied seq covers a
/// whole prefix of the global stream, the global applied seq is the
/// minimum over shards, and WaitForApplied waits on every shard.
class DeltaBuilder {
 public:
  /// `source` and `shards` must outlive this object; the shard services
  /// must be Started before this builder. `router` maps users to indices
  /// of `shards` (its shard count must match).
  DeltaBuilder(SimGraphServingRecommender* source,
               std::vector<RecommendationService*> shards,
               const ShardRouter& router, DeltaBuilderOptions options = {});
  ~DeltaBuilder();

  DeltaBuilder(const DeltaBuilder&) = delete;
  DeltaBuilder& operator=(const DeltaBuilder&) = delete;

  /// Starts the builder thread. Idempotent.
  void Start();

  /// Closes the queue, builds and ships everything still buffered, and
  /// joins the thread. Idempotent. Call before stopping the shards.
  void Stop();

  /// Enqueues one event; blocks while the queue is full. Returns its
  /// global sequence number (1-based), 0 when stopped.
  uint64_t Publish(const RetweetEvent& event);

  /// Sequence number of the last event folded into a shipped delta.
  /// Applied shard state trails this.
  uint64_t built_seq() const {
    return built_seq_.load(std::memory_order_relaxed);
  }

  /// Crash-recovery test hooks: CrashForTest makes the builder thread
  /// exit at the next batch boundary WITHOUT draining (simulating a
  /// builder crash with events still queued; its state is consistent —
  /// deltas are only shipped whole). Recover restarts the loop, which
  /// resumes from the exact queue position, so no event is lost or
  /// double-built.
  void CrashForTest();
  void Recover();

 private:
  void BuildLoop();
  /// Builds one delta from `first` plus up to max_batch_events - 1 more
  /// queued events, runs the observer, and fans it out. False when a
  /// shard rejected its part (stopped) — the loop exits.
  bool BuildAndShip(IngestItem first);
  void RecordQueueWait(const IngestItem& item);

  SimGraphServingRecommender* source_;
  std::vector<RecommendationService*> shards_;
  ShardRouter router_;
  DeltaBuilderOptions options_;
  BoundedMpmcQueue<IngestItem> queue_;
  std::thread builder_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<bool> crash_requested_{false};
  /// Events popped so far == the global sequence number of the last
  /// popped event (single consumer pops in ticket order).
  uint64_t consumed_seq_ = 0;  // builder-thread only (incl. Recover join)
  /// Event popped but not yet processed when a simulated crash fired;
  /// Recover's restarted loop resumes with it (same thread-ownership
  /// rule as consumed_seq_).
  std::optional<IngestItem> pending_;
  std::atomic<uint64_t> built_seq_{0};
  /// Scratch reused across batches so steady-state building does not
  /// reallocate op vectors.
  SimGraphDelta scratch_;  // builder-thread only
  /// High-water mark of the global queue depth.
  std::atomic<int64_t> queue_depth_max_{0};
};

}  // namespace serve
}  // namespace simgraph

#endif  // SIMGRAPH_SERVE_DELTA_BUILDER_H_
