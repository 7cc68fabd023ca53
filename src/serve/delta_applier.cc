#include "serve/delta_applier.h"

#include <utility>

#include "util/logging.h"
#include "util/timer.h"
#include "util/trace.h"

namespace simgraph {
namespace serve {

DeltaApplierRecommender::DeltaApplierRecommender(DeltaApplierOptions options)
    : options_(options) {}

Status DeltaApplierRecommender::Train(const Dataset& dataset,
                                      int64_t train_end) {
  return state_.Init(dataset, train_end, options_.freshness_window);
}

void DeltaApplierRecommender::SeedRemoteGraphStats(uint64_t epoch,
                                                   int64_t edges) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  graph_epoch_ = epoch;
  graph_edges_ = edges;
}

AffectedUsers DeltaApplierRecommender::ObserveAffected(
    const RetweetEvent& event) {
  (void)event;
  SIMGRAPH_CHECK(false)
      << "DeltaApplier shards consume SimGraphDeltas, never raw events; "
         "publish through the sharded front door (docs/ingest.md)";
  return AffectedUsers{};
}

void DeltaApplierRecommender::BindShard(int32_t shard) {
  if (shard < 0) return;
  shard_apply_us_ = &metrics::Registry::Global().histogram(
      metrics::ShardMetricName("serve.ingest.delta.apply_us", shard));
}

AffectedUsers DeltaApplierRecommender::ApplyDelta(const SimGraphDelta& delta) {
  SIMGRAPH_CHECK(state_.initialized()) << "Train must be called first";
  const bool metrics_on = metrics::Enabled();
  WallTimer apply_timer;

  // Replay in recorded order — consumed marks before deposits, the
  // order the builder mutated its own state in, so the replica stays
  // bit-identical. ReplayDeltaOps batches the ops per stripe lock,
  // which is what keeps a shard's replay cost far below the full
  // update it stands in for.
  state_.ReplayDeltaOps(delta);
  if (delta.evict_before > 0) state_.EvictStale(delta.evict_before);
  if (delta.has_flag(SimGraphDelta::kFlagSnapshotRefresh)) {
    // The refresh's epoch and edge count travel in the delta itself, so
    // in-process shards and remote replicas report the same stats
    // (docs/replication.md).
    std::lock_guard<std::mutex> lock(stats_mu_);
    graph_epoch_ = delta.snapshot_epoch;
    graph_edges_ = delta.graph_edges;
  }
  if (delta.seq_end > applied_delta_seq_) applied_delta_seq_ = delta.seq_end;

  if (metrics_on) {
    const double us = apply_timer.ElapsedSeconds() * 1e6;
    SIMGRAPH_HISTOGRAM_RECORD("serve.ingest.delta.apply_us", us);
    if (shard_apply_us_ != nullptr) shard_apply_us_->Record(us);
  }

  // The builder already computed exactly whose cached answers the
  // covered events may have changed.
  AffectedUsers affected;
  affected.users = delta.invalidated;
  return affected;
}

std::vector<ScoredTweet> DeltaApplierRecommender::Recommend(UserId user,
                                                            Timestamp now,
                                                            int32_t k) {
  return RecommendUntil(user, now, k,
                        std::chrono::steady_clock::time_point::max())
      .tweets;
}

RecommendOutcome DeltaApplierRecommender::RecommendUntil(
    UserId user, Timestamp now, int32_t k,
    std::chrono::steady_clock::time_point deadline) {
  SIMGRAPH_CHECK(state_.initialized()) << "Train must be called first";
  return state_.ScanTopK(user, now, k, deadline);
}

uint64_t DeltaApplierRecommender::graph_epoch() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return graph_epoch_;
}

bool DeltaApplierRecommender::GraphStats(uint64_t* epoch,
                                         int64_t* edges) const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  *epoch = graph_epoch_;
  *edges = graph_edges_;
  return true;
}

}  // namespace serve
}  // namespace simgraph
