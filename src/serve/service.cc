#include "serve/service.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "util/logging.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace simgraph {
namespace serve {
namespace {

constexpr int32_t kCacheStripes = 64;  // result-cache lock stripes

}  // namespace

RecommendationService::RecommendationService(
    std::unique_ptr<ServingRecommender> recommender, ServiceOptions options)
    : recommender_(std::move(recommender)),
      options_(options),
      flight_recorder_(options.flight_recorder_capacity),
      queue_(kIngestQueueCapacity) {
  SIMGRAPH_CHECK(recommender_ != nullptr);
  if (options_.shard >= 0) {
    auto& registry = metrics::Registry::Global();
    shard_requests_ = &registry.counter(
        metrics::ShardMetricName("serve.requests", options_.shard));
    shard_applied_seq_ = &registry.gauge(
        metrics::ShardMetricName("serve.ingest.applied_seq", options_.shard));
    shard_queue_depth_max_ = &registry.gauge(metrics::ShardMetricName(
        "serve.ingest.queue_depth_max", options_.shard));
    recommender_->BindShard(options_.shard);
  }
}

RecommendationService::~RecommendationService() { Stop(); }

Status RecommendationService::Train(const Dataset& dataset,
                                    int64_t train_end) {
  SIMGRAPH_RETURN_IF_ERROR(recommender_->Train(dataset, train_end));
  num_users_ = dataset.num_users();
  num_tweets_ = static_cast<int64_t>(dataset.tweets.size());
  if (options_.cache_ttl >= 0) {
    cache_ = std::make_unique<ResultCache>(num_users_, options_.cache_ttl,
                                           kCacheStripes);
  }
  return Status::Ok();
}

void RecommendationService::Start() {
  if (started_.exchange(true)) return;
  applier_ = std::thread([this] { ApplierLoop(); });
}

void RecommendationService::Stop() {
  if (stopped_.exchange(true)) return;
  queue_.Close();
  if (applier_.joinable()) applier_.join();
  // Unblock any WaitForApplied stragglers (covers the never-started
  // case, where the applier loop never ran to set drained_).
  {
    std::lock_guard<std::mutex> lock(applied_mu_);
    drained_ = true;
  }
  applied_cv_.notify_all();
}

uint64_t RecommendationService::Publish(const RetweetEvent& event) {
  IngestItem item;
  item.event = event;
  // Capture the publishing request's trace context so the applier thread
  // can attribute the queue wait and the apply work to it.
  if (trace::RequestScope* scope = trace::CurrentScope();
      scope != nullptr && scope->collecting()) {
    item.request_id = scope->request_id();
    item.traced = scope->recording();
    item.enqueue_us = trace::NowMicros();
  }
  return PublishItem(std::move(item));
}

uint64_t RecommendationService::PublishItem(IngestItem item) {
  SIMGRAPH_CHECK(started_.load()) << "Start must be called before Publish";
  const auto ticket = queue_.Push(std::move(item));
  if (!ticket.has_value()) return 0;  // stopped; event rejected
  const auto depth = static_cast<int64_t>(queue_.size());
  SIMGRAPH_GAUGE_SET("serve.ingest.queue_depth", static_cast<double>(depth));
  int64_t max = queue_depth_max_.load(std::memory_order_relaxed);
  while (depth > max && !queue_depth_max_.compare_exchange_weak(
                            max, depth, std::memory_order_relaxed)) {
  }
  const double depth_max =
      static_cast<double>(queue_depth_max_.load(std::memory_order_relaxed));
  SIMGRAPH_GAUGE_SET("serve.ingest.queue_depth_max", depth_max);
  if (shard_queue_depth_max_ != nullptr) {
    shard_queue_depth_max_->Set(depth_max);
  }
  return *ticket + 1;  // tickets are 0-based, sequence numbers 1-based
}

Status RecommendationService::ValidateDelta(
    const SimGraphDelta& delta) const {
  return delta.ValidateIds(num_users_, num_tweets_);
}

uint64_t RecommendationService::AppliedSeq() const {
  std::lock_guard<std::mutex> lock(applied_mu_);
  return applied_seq_;
}

void RecommendationService::WaitForApplied(uint64_t seq) {
  std::unique_lock<std::mutex> lock(applied_mu_);
  applied_cv_.wait(lock,
                   [this, seq] { return applied_seq_ >= seq || drained_; });
}

void RecommendationService::ApplierLoop() {
  while (true) {
    std::optional<IngestItem> item = queue_.Pop();
    if (!item.has_value()) break;  // closed and drained
    if (item->request_id != 0 && item->traced) {
      const int64_t now_us = trace::NowMicros();
      trace::RecordRequestSpan("request/queue_wait", "serve",
                               item->enqueue_us,
                               now_us - item->enqueue_us, item->request_id);
    }
    // Adopt the publishing request on this thread so the apply span
    // below joins its trace tree.
    std::optional<trace::RequestScope> request_scope;
    if (item->request_id != 0) {
      request_scope.emplace("request/apply", item->request_id, item->traced);
    }
    AffectedUsers affected;
    {
      SIMGRAPH_TRACE_SPAN("request/apply_event", "serve");
      // Timed explicitly (not SIMGRAPH_SCOPED_LATENCY) so one clock pair
      // feeds both the cumulative histogram and the per-window one.
      const bool collect = metrics::Enabled();
      std::chrono::steady_clock::time_point apply_start;
      if (collect) apply_start = std::chrono::steady_clock::now();
      if (item->delta != nullptr) {
        // Delta-applying shard (docs/ingest.md): replay the builder's
        // recorded ops instead of re-running the incremental update.
        affected = recommender_->ApplyDelta(*item->delta);
      } else if (recommender_->concurrent_reads()) {
        affected = recommender_->ObserveAffected(item->event);
      } else {
        std::lock_guard<std::mutex> lock(serial_mu_);
        affected = recommender_->ObserveAffected(item->event);
      }
      if (collect) {
        static metrics::LatencyHistogram& apply_hist =
            metrics::Registry::Global().histogram(
                "serve.ingest.apply_seconds");
        const double seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          apply_start)
                .count();
        apply_hist.Record(seconds);
        window_apply_us_.Add(seconds * 1e6);
      }
    }
    SIMGRAPH_COUNTER_ADD(
        "serve.ingest.events",
        item->delta != nullptr ? item->delta->num_events() : 1);
    if (cache_ != nullptr) {
      int64_t dropped = 0;
      if (affected.all) {
        dropped = cache_->InvalidateAll();
      } else {
        for (const UserId u : affected.users) {
          if (cache_->Invalidate(u)) ++dropped;
        }
      }
      SIMGRAPH_COUNTER_ADD("serve.cache_invalidations", dropped);
    }
    {
      std::lock_guard<std::mutex> lock(applied_mu_);
      // A stamped item carries the global sequence the pipeline assigned
      // (a delta jumps the counter across its whole batch); unstamped
      // items count one by one, matching the local queue ticket.
      if (item->seq != 0) {
        applied_seq_ = std::max(applied_seq_, item->seq);
      } else {
        ++applied_seq_;
      }
      SIMGRAPH_GAUGE_SET("serve.ingest.applied_seq",
                         static_cast<double>(applied_seq_));
      if (shard_applied_seq_ != nullptr) {
        shard_applied_seq_->Set(static_cast<double>(applied_seq_));
      }
    }
    applied_cv_.notify_all();
  }
  {
    std::lock_guard<std::mutex> lock(applied_mu_);
    drained_ = true;
  }
  applied_cv_.notify_all();
}

BackendStats RecommendationService::Stats() const {
  ShardStats shard;
  shard.applied_seq = AppliedSeq();
  shard.cached_entries = cache_ != nullptr ? cache_->size() : 0;
  recommender_->GraphStats(&shard.graph_epoch, &shard.graph_edges);
  BackendStats stats;
  stats.applied_seq = shard.applied_seq;
  stats.cached_entries = shard.cached_entries;
  stats.graph_epoch = shard.graph_epoch;
  stats.graph_edges = shard.graph_edges;
  stats.shards.push_back(shard);
  return stats;
}

RecommendResponse RecommendationService::Recommend(
    const RecommendRequest& request) {
  const auto deadline =
      options_.deadline.count() == 0
          ? std::chrono::steady_clock::time_point::max()
          : std::chrono::steady_clock::now() + options_.deadline;
  if (recommender_->concurrent_reads()) {
    return RecommendLocked(request, deadline);
  }
  std::lock_guard<std::mutex> lock(serial_mu_);
  return RecommendLocked(request, deadline);
}

std::vector<RecommendResponse> RecommendationService::RecommendBatch(
    const std::vector<RecommendRequest>& requests) {
  SIMGRAPH_HISTOGRAM_RECORD("serve.batch.size",
                            static_cast<double>(requests.size()));
  std::vector<RecommendResponse> responses;
  responses.reserve(requests.size());
  const auto start = std::chrono::steady_clock::now();
  const auto deadline_for = [&](size_t i) {
    // Cumulative budgets: early finishers donate slack to later
    // requests instead of every request getting a cliff of its own.
    return options_.deadline.count() == 0
               ? std::chrono::steady_clock::time_point::max()
               : start + options_.deadline * static_cast<int64_t>(i + 1);
  };
  if (recommender_->concurrent_reads()) {
    for (size_t i = 0; i < requests.size(); ++i) {
      responses.push_back(RecommendLocked(requests[i], deadline_for(i)));
    }
  } else {
    std::lock_guard<std::mutex> lock(serial_mu_);
    for (size_t i = 0; i < requests.size(); ++i) {
      responses.push_back(RecommendLocked(requests[i], deadline_for(i)));
    }
  }
  return responses;
}

RecommendResponse RecommendationService::RecommendLocked(
    const RecommendRequest& request,
    std::chrono::steady_clock::time_point deadline) {
  // Passive when the TCP front-end already opened a scope for this
  // request; owning when the service API is called directly.
  trace::RequestScope request_scope("request/recommend");
  SIMGRAPH_TRACE_SPAN("RecommendationService::Recommend", "serve");
  if (!metrics::Enabled()) return RecommendImpl(request, deadline);

  // One clock pair feeds the cumulative serve.request.seconds histogram
  // (what SIMGRAPH_SCOPED_LATENCY recorded before), the per-window
  // meters, and the flight recorder — the cache-hit path is ~100ns, so
  // every extra clock read here would show up in the bench.
  static metrics::LatencyHistogram& request_hist =
      metrics::Registry::Global().histogram("serve.request.seconds");
  SIMGRAPH_COUNTER_ADD("serve.requests", 1);
  if (shard_requests_ != nullptr) shard_requests_->Add(1);
  const auto start = std::chrono::steady_clock::now();
  RecommendResponse response = RecommendImpl(request, deadline);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  request_hist.Record(seconds);
  window_requests_.Add(1);
  if (response.cache_hit) window_hits_.Add(1);
  if (response.degraded) window_degraded_.Add(1);
  if (flight_recorder_.enabled()) {
    // The owning scope (ours, or the TCP front-end's) accumulates the
    // per-stage breakdown; retain from it so the slow-log shows stages.
    if (trace::RequestScope* scope = trace::CurrentScope();
        scope != nullptr) {
      flight_recorder_.Record(*scope, request.user,
                              static_cast<int64_t>(seconds * 1e6),
                              response.cache_hit, response.degraded);
    }
  }
  return response;
}

RecommendResponse RecommendationService::RecommendImpl(
    const RecommendRequest& request,
    std::chrono::steady_clock::time_point deadline) {
  RecommendResponse response;
  response.applied_seq = AppliedSeq();
  if (request.user < 0 || request.user >= num_users_) {
    response.status = Status::InvalidArgument("user out of range");
    return response;
  }
  if (request.k <= 0) {
    response.status = Status::InvalidArgument("k must be positive");
    return response;
  }

  uint64_t version = 0;
  if (cache_ != nullptr) {
    ResultCache::Lookup lookup =
        cache_->Get(request.user, request.now, request.k);
    if (lookup.hit) {
      SIMGRAPH_COUNTER_ADD("serve.cache_hit", 1);
      response.cache_hit = true;
      response.tweets = std::move(lookup.tweets);
      return response;
    }
    SIMGRAPH_COUNTER_ADD("serve.cache_miss", 1);
    version = lookup.version;
  }

  RecommendOutcome outcome = recommender_->RecommendUntil(
      request.user, request.now, request.k, deadline);
  if (!outcome.complete) {
    SIMGRAPH_COUNTER_ADD("serve.deadline_exceeded", 1);
    response.degraded = true;
    // A truncated list must never be cached: a later identical request
    // would be served the degraded answer as if it were exact.
    response.tweets = std::move(outcome.tweets);
    return response;
  }
  if (cache_ != nullptr) {
    cache_->Put(request.user, request.now, request.k, outcome.tweets,
                version);
  }
  response.tweets = std::move(outcome.tweets);
  return response;
}

void RecommendationService::RotateWindows(int64_t window,
                                          std::vector<ShardWindow>* out) {
  // `window` is the index being closed; the meters move on to the next.
  window_requests_.AdvanceTo(window + 1);
  window_hits_.AdvanceTo(window + 1);
  window_degraded_.AdvanceTo(window + 1);
  window_apply_us_.AdvanceTo(window + 1);
  flight_recorder_.AdvanceTo(window + 1);
  if (out == nullptr || window < 0) return;
  ShardWindow w;
  w.shard = options_.shard;
  w.window = window;
  w.requests = window_requests_.Count(window);
  w.hits = window_hits_.Count(window);
  w.degraded = window_degraded_.Count(window);
  w.apply_us = window_apply_us_.Window(window);
  out->push_back(w);
}

void RecommendationService::CollectSlowRequests(
    int32_t max, std::vector<SlowRequestEntry>* out) const {
  if (out == nullptr) return;
  std::vector<SlowRequestEntry> entries = flight_recorder_.Snapshot(max);
  for (SlowRequestEntry& e : entries) {
    e.shard = options_.shard;
    out->push_back(e);
  }
}

}  // namespace serve
}  // namespace simgraph
