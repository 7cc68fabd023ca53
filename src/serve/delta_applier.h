#ifndef SIMGRAPH_SERVE_DELTA_APPLIER_H_
#define SIMGRAPH_SERVE_DELTA_APPLIER_H_

#include <chrono>
#include <memory>
#include <mutex>
#include <vector>

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
  /// When serving image-backed (docs/store.md), every applier shard pins
  /// the SAME shared mmap'd graph image here — shards never decode it on
  /// the hot path (deltas carry everything they replay), but pinning
  /// keeps the map alive for the shard's whole life and lets Train
  /// cross-check the dataset population against the image.
  std::shared_ptr<const store::GraphImage> graph_image;
};

/// The cheap shard-side half of the delta-shipping ingest pipeline
/// (docs/ingest.md): the DeltaBuilder runs the incremental SimGraph
/// update once, and a DeltaApplierRecommender only replays the compact
/// op stream it recorded — candidate deposits, consumed marks, an
/// occasional eviction watermark, and snapshot epoch swaps — so its
/// per-event cost is O(ops shipped), not O(incremental update +
/// propagation). It holds no similarity graph: its graph stats are two
/// integers, seeded once and advanced by every refresh delta.
///
/// Replica determinism: Train builds the same CandidateState every
/// replica starts from (training retweets consumed, empty candidates),
/// and deltas are applied in sequence order by the shard's single
/// applier thread. An in-process shard receives only its own users'
/// ops (SplitDeltaByShard), a remote replica the full delta, so at
/// every delta boundary each holds candidate state bit-identical to the
/// builder's for every user it receives ops for
/// (tests/serve/delta_equivalence_test.cc proves it against a
/// single-threaded prefix recompute).
///
/// ObserveAffected CHECK-fails: a delta shard never sees raw events.
class DeltaApplierRecommender final : public ServingRecommender {
 public:
  explicit DeltaApplierRecommender(DeltaApplierOptions options = {});

  std::string name() const override { return "DeltaApplier"; }

  /// Builds the initial candidate replica. Cheap — no similarity graph
  /// is built here; that is the whole point of the pipeline.
  Status Train(const Dataset& dataset, int64_t train_end) override;

  /// Seeds the graph stats GraphStats reports with the builder's
  /// post-train epoch and edge count: ShardedService passes its source's,
  /// a remote replica (docs/replication.md) the replication handshake's.
  /// Call after Train, before serving; every refresh delta then carries
  /// both forward.
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

  uint64_t graph_epoch() const;
  /// Sequence number of the last applied delta's seq_end (0 initially).
  uint64_t applied_delta_seq() const { return applied_delta_seq_; }

 private:
  DeltaApplierOptions options_;
  CandidateState state_;
  uint64_t applied_delta_seq_ = 0;  // applier-thread only

  /// Guards the graph stats (advanced by refresh deltas, read by Stats
  /// from any thread).
  mutable std::mutex stats_mu_;
  uint64_t graph_epoch_ = 0;
  int64_t graph_edges_ = 0;

  // Shard-qualified delta-apply histogram, cached by BindShard; null
  // outside sharded deployments.
  metrics::LatencyHistogram* shard_apply_us_ = nullptr;
};

}  // namespace serve
}  // namespace simgraph

#endif  // SIMGRAPH_SERVE_DELTA_APPLIER_H_
