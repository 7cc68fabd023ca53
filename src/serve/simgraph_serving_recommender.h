#ifndef SIMGRAPH_SERVE_SIMGRAPH_SERVING_RECOMMENDER_H_
#define SIMGRAPH_SERVE_SIMGRAPH_SERVING_RECOMMENDER_H_

#include <chrono>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/incremental.h"
#include "core/propagation.h"
#include "core/simgraph.h"
#include "core/simgraph_delta.h"
#include "serve/candidate_state.h"
#include "serve/serving_recommender.h"
#include "store/graph_image.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace simgraph {
namespace serve {

/// Configuration of the SimGraph recommender.
struct ServingSimGraphOptions {
  SimGraphOptions graph;
  PropagationOptions propagation;
  /// Posts older than this are never recommended (Section 3.1.2 concludes
  /// 72 h).
  Timestamp freshness_window = 72 * kSecondsPerHour;
  /// Postponed computation delta (Section 5.4): propagation for a tweet
  /// runs at most once per this interval; retweets arriving in between
  /// join the seed set of the next run. 0 propagates on every retweet,
  /// even when event times go backwards.
  Timestamp postpone_delta = 0;
  /// Propagated scores below this floor are not deposited as candidates:
  /// a vanishing probability ("a friend of a friend of someone who shared
  /// it") is propagation bookkeeping, not a recommendation. Works with
  /// the beta/gamma thresholds to keep the daily capacity in the paper's
  /// 50-70 band.
  double min_deposit_score = 0.0;
  /// Cold-start fallback (Section 4.1): users absent from the SimGraph
  /// have no propagated candidates; when enabled, their recommendations
  /// are assembled from the candidates of the accounts they follow
  /// ("using the neighbourhood's computed recommendation of cold start
  /// nodes"), scores scaled by 1/|followees consulted|. Only reads this
  /// recommender serves itself pool: DeltaApplierRecommender shards
  /// answer with their own candidates, so ShardedService::Train rejects
  /// the option.
  bool cold_start_fallback = false;
  /// Re-materialise the CSR propagation snapshot from the incremental
  /// graph every this many applied events (epoch swap). 0 keeps the
  /// training-time graph forever: the offline evaluation setting, in
  /// which the paper's figures are reproduced. With 0 no incremental
  /// graph is built or maintained.
  int64_t snapshot_refresh_events = 0;
  /// When set, Train takes the follow graph from this pinned mmap'd
  /// SGCS image instead of dataset.follow_graph (which may then be
  /// empty — the million-user deployments never materialise graph.txt).
  /// All shards of a ShardedService share the SAME image; see
  /// docs/store.md.
  std::shared_ptr<const store::GraphImage> graph_image;
};

/// The paper's system: SimGraph + iterative score propagation, built for
/// online serving and driven unchanged by the offline evaluation harness.
///
/// Train builds retweet profiles over the training prefix and the
/// similarity graph on top of them. Each observed retweet extends the
/// tweet's seed set and (subject to the postponement policy) propagates
/// the tweet through the SimGraph; propagated scores are deposited into
/// per-user candidate tables from which Recommend serves fresh top-k
/// posts. The similarity graph lives in an IncrementalSimGraph that
/// absorbs every streamed event, while propagation runs over an
/// immutable CSR snapshot that is swapped atomically every
/// `snapshot_refresh_events` events — so reads never block on graph
/// maintenance.
///
/// Under the delta-shipping pipeline (docs/ingest.md) exactly one of
/// these is the DeltaBuilder's source of truth: ObserveRecordingDelta
/// runs the update once and records everything downstream
/// DeltaApplierRecommender shards need to follow along.
///
/// Threading model (enforced by RecommendationService / DeltaBuilder):
///   * ObserveAffected / ObserveRecordingDelta run on exactly one ingest
///     thread;
///   * Recommend / RecommendUntil may run concurrently from any number
///     of reader threads (concurrent_reads() is true).
/// Candidate and consumed state is guarded by locks striped over users
/// (see CandidateState).
class SimGraphServingRecommender : public ServingRecommender {
 public:
  explicit SimGraphServingRecommender(ServingSimGraphOptions options = {});

  std::string name() const override { return "SimGraph"; }
  Status Train(const Dataset& dataset, int64_t train_end) override;
  AffectedUsers ObserveAffected(const RetweetEvent& event) override;

  /// ObserveAffected, additionally recording every side effect of the
  /// event into `delta` (appending to its op vectors; the caller owns
  /// batching and seq stamping): consumed marks, changed deposits, the
  /// eviction watermark, snapshot-refresh epoch swaps with the new edge
  /// count, and the affected users (appended to delta->invalidated unsorted — the
  /// builder finalises). `delta` may be null.
  AffectedUsers ObserveRecordingDelta(const RetweetEvent& event,
                                      SimGraphDelta* delta);

  /// Caches the shard-qualified serve.apply.propagation_us histogram so
  /// the ingest loop records per-shard propagation latency without a
  /// registry lookup per event.
  void BindShard(int32_t shard) override;
  std::vector<ScoredTweet> Recommend(UserId user, Timestamp now,
                                     int32_t k) override;
  RecommendOutcome RecommendUntil(
      UserId user, Timestamp now, int32_t k,
      std::chrono::steady_clock::time_point deadline) override;
  bool concurrent_reads() const override { return true; }
  bool GraphStats(uint64_t* epoch, int64_t* edges) const override;

  /// The CSR snapshot propagation currently runs over. The returned
  /// shared_ptr keeps the snapshot alive across epoch swaps.
  std::shared_ptr<const SimGraph> GraphSnapshot() const;

  /// Bumped on every snapshot swap (1 after Train).
  uint64_t graph_epoch() const;

  /// The live incremental graph (single-threaded access only: call while
  /// the ingest thread is quiescent). Exists only when
  /// snapshot_refresh_events > 0.
  const IncrementalSimGraph& incremental() const {
    SIMGRAPH_CHECK(incremental_ != nullptr)
        << "no incremental graph: snapshot_refresh_events is 0";
    return *incremental_;
  }

  const ServingSimGraphOptions& options() const { return options_; }

  /// Cumulative number of propagation runs (for Table 5 accounting).
  int64_t num_propagations() const { return num_propagations_; }

  /// True when `user` has no incident edge in the current snapshot (the
  /// cold-start case of Section 4.1).
  bool IsColdUser(UserId user) const;

  /// Replaces the propagation snapshot with `sim_graph` (the Figure 16
  /// update-strategy study and the topic extension swap in graphs built
  /// another way). Call after Train and before the first event; requires
  /// snapshot_refresh_events == 0, since a refresh would overwrite the
  /// swapped graph with the incremental one.
  void ReplaceSimGraph(SimGraph sim_graph);

 private:
  struct TweetState {
    std::vector<UserId> seeds;
    Timestamp last_propagation = -1;
  };

  /// Propagates `tweet` from `seeds` over the current snapshot and
  /// deposits the scores, recording changed users (and deposits).
  void PropagateTweet(TweetId tweet, const std::vector<UserId>& seeds,
                      SimGraphDelta* delta, AffectedUsers* affected);

  /// Publishes `snapshot` and a propagator over it (epoch swap).
  void PublishSnapshot(std::shared_ptr<const SimGraph> snapshot);

  /// Pools the followees' candidates for a cold user.
  RecommendOutcome ColdStartRecommend(
      UserId user, Timestamp now, int32_t k,
      std::chrono::steady_clock::time_point deadline) const;

  /// Materialises incremental_ into a fresh snapshot + propagator and
  /// publishes them (epoch swap). Ingest-thread only.
  void RefreshSnapshot();

  ServingSimGraphOptions options_;
  // The Train dataset's follow graph or the pinned image's; immutable.
  const Digraph* follow_graph_ = nullptr;
  // Null when snapshot_refresh_events is 0.
  std::unique_ptr<IncrementalSimGraph> incremental_;
  /// Striped candidate/consumed state shared (by construction, not by
  /// reference) with DeltaApplierRecommender replicas.
  CandidateState state_;
  std::unordered_map<TweetId, TweetState> tweet_state_;  // ingest-only
  std::vector<UserId> tweet_author_;  // immutable after Train
  int32_t num_users_ = 0;
  int64_t observed_ = 0;          // ingest-only
  int64_t num_propagations_ = 0;  // ingest-only
  // Reused by the single ingest thread across ObserveAffected calls so
  // steady-state propagation allocates nothing (survives snapshot swaps:
  // the scratch is propagator-independent).
  PropagationScratch propagation_scratch_;  // ingest-only
  PropagationResult propagation_result_;    // ingest-only
  // Shard-qualified propagation-latency histogram, cached by BindShard;
  // null outside sharded deployments.
  metrics::LatencyHistogram* shard_propagation_us_ = nullptr;

  /// Guards snapshot_ / propagator_ / graph_epoch_ publication; the
  /// ingest thread holds it only for the pointer swap, never during the
  /// (expensive) snapshot build.
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const SimGraph> snapshot_;
  std::unique_ptr<Propagator> propagator_;  // over *snapshot_; ingest-only use
  uint64_t graph_epoch_ = 0;
};

}  // namespace serve
}  // namespace simgraph

#endif  // SIMGRAPH_SERVE_SIMGRAPH_SERVING_RECOMMENDER_H_
