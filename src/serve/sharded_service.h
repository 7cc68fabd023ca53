#ifndef SIMGRAPH_SERVE_SHARDED_SERVICE_H_
#define SIMGRAPH_SERVE_SHARDED_SERVICE_H_

#include <functional>
#include <memory>
#include <vector>

#include "core/simgraph_delta.h"
#include "dataset/dataset.h"
#include "serve/backend.h"
#include "serve/delta_applier.h"
#include "serve/delta_builder.h"
#include "serve/replication_fanout.h"
#include "serve/service.h"
#include "serve/shard_router.h"
#include "serve/simgraph_serving_recommender.h"
#include "util/status.h"

namespace simgraph {
namespace serve {

struct ShardedServiceOptions {
  /// Number of shards (clamped to >= 1). One per core is the intended
  /// deployment; 1 degenerates to a routed single RecommendationService.
  int32_t num_shards = 1;
  /// Options applied to every shard's RecommendationService; the `shard`
  /// field is overwritten per shard (it labels per-shard metrics).
  ServiceOptions shard_options;
  /// Capacity of the pipeline's global ingestion queue (Publish blocks
  /// when full — backpressure, exactly as on an unsharded service).
  int64_t ingest_queue_capacity = 4096;
  /// Upper bound of events the DeltaBuilder folds into one delta when a
  /// backlog forms (see DeltaBuilderOptions::max_batch_events).
  int64_t max_batch_events = 16;
  /// Optional tap called on the builder thread with every finalised
  /// delta before it is split for fan-out — always the full delta
  /// (tests, wire-format replication).
  std::function<void(const SimGraphDelta&)> delta_observer;
  /// Optional multi-process replication (docs/replication.md): when
  /// set, every finalised delta is also shipped to the fanout's remote
  /// replicas (after delta_observer), remote acks fold into
  /// AppliedSeq/WaitForApplied, and Stats' lag gauge covers the slowest
  /// live replica. Not owned; must be Started by the caller and outlive
  /// this service.
  ReplicationFanout* replication = nullptr;
};

/// The recommendation service partitioned into per-core shards behind a
/// hash router, fed by the delta-shipping ingest pipeline
/// (docs/ingest.md). Each shard is a full RecommendationService — its
/// own ingestion queue, applier thread, result cache, recommender — so
/// shards share no mutable state and never contend on locks.
///
/// ONE SimGraphServingRecommender is the builder's source of truth; every
/// shard is a cheap DeltaApplierRecommender that replays the part of each
/// recorded SimGraphDelta that touches the users it owns
/// (SplitDeltaByShard). The incremental update and propagation run once
/// per event batch regardless of shard count, and each shard stores only
/// its own users' candidates. All writes flow through one DeltaBuilder:
///
///   Publish --> [global queue] --> builder thread --> shard queues
///
/// The global queue's push ticket is THE global sequence number. The
/// single builder thread fans out in pop order and stamps the covered
/// sequence number on every shard's part, so:
///
///   * Recommend(request) routes to the single shard owning the user
///     (router_.ShardOf), where it runs exactly as on an unsharded
///     service.
///   * WaitForApplied(seq) waits on every shard, so after it returns any
///     user's answer — whichever shard owns them — reflects the full
///     acked prefix. AppliedSeq() is correspondingly the minimum across
///     shards.
///   * Stats() aggregates the per-shard registries into one
///     BackendStats (sum of cache entries, min applied seq, per-shard
///     breakdown for the wire's `stats` reply).
///
/// Do not Publish directly to an individual shard() of a live
/// ShardedService: shard queues belong to the pipeline. The accessor
/// exists for tests and read-only inspection.
///
/// See docs/ingest.md for the pipeline design and docs/serving.md
/// ("Sharded serving") for routing and consistency caveats.
class ShardedService : public ServingBackend {
 public:
  /// One SimGraphServingRecommender built from `simgraph_options` feeds
  /// `options.num_shards` DeltaApplierRecommender shards.
  explicit ShardedService(const ServingSimGraphOptions& simgraph_options,
                          ShardedServiceOptions options = {});
  ~ShardedService() override;

  ShardedService(const ShardedService&) = delete;
  ShardedService& operator=(const ShardedService&) = delete;

  /// Trains the builder source and every shard (in parallel, one thread
  /// each), then seeds the appliers with the source's trained snapshot.
  /// Call before Start. InvalidArgument when the simgraph options set
  /// cold_start_fallback, which the shards cannot honour.
  Status Train(const Dataset& dataset, int64_t train_end);

  /// Starts every shard's applier thread, then the pipeline. Idempotent.
  void Start();

  /// Stops the pipeline (drains the global queue through the builder so
  /// buffered deltas still land), then every shard. Idempotent; also
  /// called by the destructor.
  void Stop();

  uint64_t Publish(const RetweetEvent& event) override;
  uint64_t AppliedSeq() const override;
  void WaitForApplied(uint64_t seq) override;
  RecommendResponse Recommend(const RecommendRequest& request) override;
  /// Groups the batch by owning shard and crosses the router hop once
  /// per shard (each shard serves its sub-batch under one lock), then
  /// reassembles responses in request order. serve.router.batch.*
  /// metrics + a request/route_batch span per batch.
  std::vector<RecommendResponse> RecommendBatch(
      const std::vector<RecommendRequest>& requests) override;
  BackendStats Stats() const override;
  /// Rotates every shard's windowed telemetry; one ShardWindow each.
  void RotateWindows(int64_t window, std::vector<ShardWindow>* out) override;
  /// Merges every shard's flight recorder, slowest first.
  void CollectSlowRequests(int32_t max,
                           std::vector<SlowRequestEntry>* out) const override;

  const ShardRouter& router() const { return router_; }
  int32_t num_shards() const { return router_.num_shards(); }
  int32_t ShardOf(UserId user) const { return router_.ShardOf(user); }

  /// The builder's source of truth. Ingest is single-threaded inside the
  /// builder; inspect only while quiescent.
  SimGraphServingRecommender* builder_recommender() { return source_.get(); }

  /// Sequence number of the last event the pipeline shipped in a delta.
  uint64_t BuiltSeq() const { return pipeline_->built_seq(); }

  /// Crash-recovery test hooks, forwarded to DeltaBuilder (see there).
  void CrashBuilderForTest() { pipeline_->CrashForTest(); }
  void RecoverBuilderForTest() { pipeline_->Recover(); }

  /// Direct access to one shard (tests / inspection; see the class
  /// comment about Publish).
  RecommendationService& shard(int32_t i) {
    return *shards_[static_cast<size_t>(i)];
  }
  const RecommendationService& shard(int32_t i) const {
    return *shards_[static_cast<size_t>(i)];
  }

 private:
  ShardedServiceOptions options_;
  ShardRouter router_;
  /// The single recommender the builder thread runs the real update on.
  /// Owned here; referenced by pipeline_.
  std::unique_ptr<SimGraphServingRecommender> source_;
  std::vector<std::unique_ptr<RecommendationService>> shards_;
  /// The shards' recommenders, kept typed at construction so Train can
  /// seed snapshots without dynamic_cast.
  std::vector<DeltaApplierRecommender*> appliers_;
  /// The single-writer ingest pipeline every Publish flows through.
  std::unique_ptr<DeltaBuilder> pipeline_;
};

}  // namespace serve
}  // namespace simgraph

#endif  // SIMGRAPH_SERVE_SHARDED_SERVICE_H_
