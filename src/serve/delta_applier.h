#ifndef SIMGRAPH_SERVE_DELTA_APPLIER_H_
#define SIMGRAPH_SERVE_DELTA_APPLIER_H_

#include <chrono>
#include <memory>
#include <mutex>
#include <vector>

#include "core/simgraph.h"
#include "core/simgraph_delta.h"
#include "serve/candidate_state.h"
#include "serve/serving_recommender.h"
#include "store/graph_image.h"
#include "util/metrics.h"

namespace simgraph {
namespace serve {

/// Configuration of a delta-applying shard replica. Must match the
/// builder's ServingSimGraphOptions where the fields overlap, or the
/// replica's answers diverge from the builder's state.
struct DeltaApplierOptions {
  Timestamp freshness_window = 72 * kSecondsPerHour;
  int32_t num_stripes = 64;
  /// When serving image-backed (docs/store.md), every applier shard pins
  /// the SAME shared mmap'd graph image here — shards never decode it on
  /// the hot path (deltas carry everything they replay), but pinning
  /// keeps the map alive for the shard's whole life and lets Train
  /// cross-check the dataset population against the image.
  std::shared_ptr<const store::GraphImage> graph_image;
};

/// The cheap shard-side half of the delta-shipping ingest pipeline
/// (docs/ingest.md): where a replicated shard re-runs the entire
/// incremental SimGraph update per event, a DeltaApplierRecommender only
/// replays the compact op stream the DeltaBuilder recorded — candidate
/// deposits, consumed marks, an occasional eviction watermark, and
/// snapshot epoch swaps — so its per-event cost is O(ops shipped), not
/// O(incremental update + propagation).
///
/// Replica determinism: Train builds the same CandidateState every
/// replica starts from (training retweets consumed, empty candidates),
/// and deltas are applied in sequence order by the shard's single
/// applier thread. An in-process shard receives only its own users'
/// ops (SplitDeltaByShard), a remote replica the full delta, so at
/// every delta boundary each holds candidate state bit-identical to the
/// builder's for every user it receives ops for
/// (tests/serve/delta_equivalence_test.cc proves it against per-shard
/// recompute).
///
/// ObserveAffected CHECK-fails: a delta shard never sees raw events.
class DeltaApplierRecommender final : public ServingRecommender {
 public:
  explicit DeltaApplierRecommender(DeltaApplierOptions options = {});

  std::string name() const override { return "DeltaApplier"; }

  /// Builds the initial candidate replica. Cheap — no similarity graph
  /// is built here; that is the whole point of the pipeline.
  Status Train(const Dataset& dataset, int64_t train_end) override;

  /// Installs the builder's post-train CSR snapshot so Stats report
  /// graph epoch/edges. Call after Train, before serving.
  void SeedSnapshot(std::shared_ptr<const SimGraph> snapshot,
                    uint64_t epoch);

  /// Remote replicas (docs/replication.md) never hold the builder's
  /// snapshot object: seed the stats the handshake reported instead.
  /// Refresh deltas then carry graph_epoch_ forward on their own; the
  /// edge count stays the handshake's last-known value.
  void SeedRemoteGraphStats(uint64_t epoch, int64_t edges);

  AffectedUsers ObserveAffected(const RetweetEvent& event) override;
  AffectedUsers ApplyDelta(const SimGraphDelta& delta) override;
  void BindShard(int32_t shard) override;
  std::vector<ScoredTweet> Recommend(UserId user, Timestamp now,
                                     int32_t k) override;
  RecommendOutcome RecommendUntil(
      UserId user, Timestamp now, int32_t k,
      std::chrono::steady_clock::time_point deadline) override;
  bool concurrent_reads() const override { return true; }
  bool GraphStats(uint64_t* epoch, int64_t* edges) const override;

  /// The snapshot this shard currently reports (last epoch swap).
  std::shared_ptr<const SimGraph> GraphSnapshot() const;
  uint64_t graph_epoch() const;
  /// Sequence number of the last applied delta's seq_end (0 initially).
  uint64_t applied_delta_seq() const { return applied_delta_seq_; }

 private:
  DeltaApplierOptions options_;
  CandidateState state_;
  uint64_t applied_delta_seq_ = 0;  // applier-thread only

  /// Guards snapshot_ / epoch_ publication (swapped on refresh deltas,
  /// read by Stats from any thread).
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const SimGraph> snapshot_;
  uint64_t graph_epoch_ = 0;
  /// Remote-seeded stats (SeedRemoteGraphStats): GraphStats falls back
  /// to these when no snapshot object is held.
  bool remote_stats_ = false;
  int64_t remote_edges_ = 0;

  // Shard-qualified delta-apply histogram, cached by BindShard; null
  // outside sharded deployments.
  metrics::LatencyHistogram* shard_apply_us_ = nullptr;
};

}  // namespace serve
}  // namespace simgraph

#endif  // SIMGRAPH_SERVE_DELTA_APPLIER_H_
