#ifndef SIMGRAPH_SERVE_SERVICE_H_
#define SIMGRAPH_SERVE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/simgraph_delta.h"
#include "dataset/dataset.h"
#include "serve/backend.h"
#include "serve/flight_recorder.h"
#include "serve/result_cache.h"
#include "serve/serving_recommender.h"
#include "util/metrics.h"
#include "util/mpmc_queue.h"
#include "util/status.h"
#include "util/timeseries.h"

namespace simgraph {
namespace serve {

/// Capacity of every ingestion queue: a service's own and the delta
/// pipeline's global one. Publish blocks when full (backpressure).
inline constexpr int64_t kIngestQueueCapacity = 4096;

struct ServiceOptions {
  /// Result-cache TTL in simulated seconds. Negative disables caching
  /// entirely; 0 caches within the same simulated instant only.
  Timestamp cache_ttl = 0;
  /// Per-request compute budget. 0 means unlimited (never degrade). A
  /// negative budget is an already-expired deadline: every uncached
  /// request degrades immediately — deterministic load shedding, also
  /// used by tests to pin the degradation path.
  std::chrono::microseconds deadline{0};
  /// Index of this service within a sharded deployment (see
  /// sharded_service.h). >= 0 additionally records per-shard metrics
  /// under metrics::ShardMetricName(base, shard); -1 (the default,
  /// standalone service) records only the unlabelled names.
  int32_t shard = -1;
  /// Entry budget of the slow-request flight recorder
  /// (serve/flight_recorder.h); 0 disables retention entirely. The
  /// request-path cost is one relaxed load per request, so the recorder
  /// stays on by default.
  int32_t flight_recorder_capacity = 16;
};

/// One entry of the ingestion queue: the work unit (a raw event, or a
/// pre-built SimGraphDelta when this service is a delta-applying shard
/// behind the pipeline — docs/ingest.md) plus the trace context of the
/// publishing request, so the applier can attribute the queue wait and
/// the apply work to the request that enqueued the event (the two run on
/// different threads; see docs/observability.md).
struct IngestItem {
  RetweetEvent event;
  /// Non-null: this item is a delta covering [delta->seq_begin,
  /// delta->seq_end]; `event` is ignored and the applier routes to
  /// ServingRecommender::ApplyDelta instead of ObserveAffected.
  std::shared_ptr<const SimGraphDelta> delta;
  /// Externally assigned global sequence number the applied-seq counter
  /// jumps to after this item (a pipeline fan-out stamps it; see
  /// DeltaBuilder). 0 = standalone service: the counter increments by
  /// one per item, matching the local queue ticket.
  uint64_t seq = 0;
  /// Request id of the publishing RequestScope; 0 when the publisher ran
  /// outside any request.
  uint64_t request_id = 0;
  /// trace::NowMicros() at enqueue; start of the queue-wait span.
  int64_t enqueue_us = 0;
  /// Whether the publishing scope was recording trace events — carried
  /// alongside the id so the applier never records spans under a request
  /// whose root span was dropped.
  bool traced = false;
};

/// In-process recommendation service: one ServingRecommender behind a
/// concurrent request engine.
///
///   * Publish(event) enqueues a streamed retweet and returns its global
///     sequence number; a single applier thread drains the queue in
///     order, applies each event, and invalidates exactly the users the
///     recommender reports as affected. Single-threaded application
///     gives exact event-prefix semantics: once AppliedSeq() >= s, every
///     Recommend reflects precisely the first s published events.
///   * Recommend(request) is safe from any number of threads. It
///     consults the result cache, computes under the configured deadline
///     on miss, and stores complete answers back (version-checked, so an
///     answer computed concurrently with an invalidating event is never
///     cached).
///
/// See docs/serving.md for the full design.
class RecommendationService : public ServingBackend {
 public:
  RecommendationService(std::unique_ptr<ServingRecommender> recommender,
                        ServiceOptions options = {});
  ~RecommendationService() override;

  RecommendationService(const RecommendationService&) = delete;
  RecommendationService& operator=(const RecommendationService&) = delete;

  /// Trains the recommender and sizes the result cache. Call before
  /// Start.
  Status Train(const Dataset& dataset, int64_t train_end);

  /// Starts the applier thread. Idempotent.
  void Start();

  /// Closes the ingestion queue, drains remaining events, and joins the
  /// applier. Idempotent; also called by the destructor.
  void Stop();

  /// Enqueues one event; blocks while the queue is full. Returns the
  /// event's sequence number (1-based), or 0 when the service has been
  /// stopped and the event was rejected.
  uint64_t Publish(const RetweetEvent& event) override;

  /// Enqueues a pre-assembled item (pipeline fan-out: the DeltaBuilder
  /// hands each shard its part of a delta with the global sequence
  /// number already stamped). Returns the local queue ticket + 1, or 0
  /// when stopped. Direct API users want Publish.
  uint64_t PublishItem(IngestItem item);

  /// Checks a delta read off the wire against the trained population
  /// and catalogue (SimGraphDelta::ValidateIds). A replica calls it
  /// before PublishItem, so a bad id ends its session instead of
  /// corrupting its state.
  Status ValidateDelta(const SimGraphDelta& delta) const;

  /// Sequence number of the last applied event (0 before any).
  uint64_t AppliedSeq() const override;

  /// Blocks until AppliedSeq() >= seq. Returns immediately when the
  /// service is stopped and the queue has drained below seq.
  void WaitForApplied(uint64_t seq) override;

  RecommendResponse Recommend(const RecommendRequest& request) override;

  /// One-shard stats snapshot (graph epoch/edges are reported when the
  /// recommender is a SimGraphServingRecommender, 0 otherwise).
  BackendStats Stats() const override;

  /// Serves a batch of requests. With a non-concurrent recommender the
  /// internal lock is taken once for the whole batch; deadlines are
  /// cumulative (request i gets budget * (i + 1) from batch start), so
  /// early finishers donate slack to later requests.
  std::vector<RecommendResponse> RecommendBatch(
      const std::vector<RecommendRequest>& requests) override;

  /// Closes telemetry window `window`: rotates the per-window request/
  /// hit/degraded meters, the windowed apply-latency histogram and the
  /// flight recorder, and appends the closed window's aggregates.
  void RotateWindows(int64_t window, std::vector<ShardWindow>* out) override;

  /// Slowest retained requests of the current + previous telemetry
  /// window (see serve/flight_recorder.h).
  void CollectSlowRequests(int32_t max,
                           std::vector<SlowRequestEntry>* out) const override;

  ServingRecommender& recommender() { return *recommender_; }
  const ServingRecommender& recommender() const { return *recommender_; }
  /// Null until Train, or when caching is disabled (cache_ttl < 0).
  ResultCache* cache() { return cache_.get(); }

 private:
  void ApplierLoop();
  RecommendResponse RecommendLocked(
      const RecommendRequest& request,
      std::chrono::steady_clock::time_point deadline);
  RecommendResponse RecommendImpl(
      const RecommendRequest& request,
      std::chrono::steady_clock::time_point deadline);

  std::unique_ptr<ServingRecommender> recommender_;
  ServiceOptions options_;
  std::unique_ptr<ResultCache> cache_;
  int32_t num_users_ = 0;
  int64_t num_tweets_ = 0;

  /// Per-shard labelled metrics (null unless options_.shard >= 0).
  metrics::Counter* shard_requests_ = nullptr;
  metrics::Gauge* shard_applied_seq_ = nullptr;
  metrics::Gauge* shard_queue_depth_max_ = nullptr;

  /// Windowed telemetry (rotated by RotateWindows; docs/observability.md
  /// "Windowed telemetry & flight recorder").
  timeseries::RateMeter window_requests_;
  timeseries::RateMeter window_hits_;
  timeseries::RateMeter window_degraded_;
  timeseries::WindowedHistogram window_apply_us_;
  FlightRecorder flight_recorder_;

  BoundedMpmcQueue<IngestItem> queue_;
  /// High-water mark of the ingestion queue depth, exported as the gauge
  /// serve.ingest.queue_depth_max.
  std::atomic<int64_t> queue_depth_max_{0};
  std::thread applier_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};

  /// Serialises recommender access when concurrent_reads() is false.
  std::mutex serial_mu_;

  mutable std::mutex applied_mu_;
  std::condition_variable applied_cv_;
  uint64_t applied_seq_ = 0;
  /// Set by the applier when the queue is closed and fully drained.
  bool drained_ = false;
};

}  // namespace serve
}  // namespace simgraph

#endif  // SIMGRAPH_SERVE_SERVICE_H_
