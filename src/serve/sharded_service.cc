#include "serve/sharded_service.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "serve/replication_wire.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace simgraph {
namespace serve {

ShardedService::ShardedService(const ServingSimGraphOptions& simgraph_options,
                               ShardedServiceOptions options)
    : options_(std::move(options)), router_(options_.num_shards) {
  source_ =
      std::make_unique<SimGraphServingRecommender>(simgraph_options);
  // Applier-side candidate state must mirror the builder's exactly —
  // same freshness window — or replay diverges.
  DeltaApplierOptions applier_options;
  applier_options.freshness_window = simgraph_options.freshness_window;
  shards_.reserve(static_cast<size_t>(router_.num_shards()));
  appliers_.reserve(static_cast<size_t>(router_.num_shards()));
  for (int32_t i = 0; i < router_.num_shards(); ++i) {
    ServiceOptions shard_options = options_.shard_options;
    shard_options.shard = i;
    auto applier = std::make_unique<DeltaApplierRecommender>(applier_options);
    appliers_.push_back(applier.get());
    shards_.push_back(std::make_unique<RecommendationService>(
        std::move(applier), shard_options));
  }

  std::vector<RecommendationService*> shard_ptrs;
  shard_ptrs.reserve(shards_.size());
  for (const auto& shard : shards_) shard_ptrs.push_back(shard.get());
  DeltaBuilderOptions builder_options;
  builder_options.max_batch_events = options_.max_batch_events;
  builder_options.delta_observer = options_.delta_observer;
  if (options_.replication != nullptr) {
    // Chain the fanout onto the builder tap: remote replicas get the
    // full delta (every user's ops) that the in-process shards' parts
    // are split from, in the same order.
    ReplicationFanout* fanout = options_.replication;
    std::function<void(const SimGraphDelta&)> observer =
        options_.delta_observer;
    builder_options.delta_observer =
        [fanout, observer](const SimGraphDelta& delta) {
          if (observer) observer(delta);
          fanout->ShipDelta(delta);
        };
  }
  pipeline_ = std::make_unique<DeltaBuilder>(source_.get(),
                                             std::move(shard_ptrs), router_,
                                             std::move(builder_options));
}

ShardedService::~ShardedService() { Stop(); }

Status ShardedService::Train(const Dataset& dataset, int64_t train_end) {
  if (source_->options().cold_start_fallback) {
    // Shards answer from their own candidate tables; none pools a cold
    // user's followees, so the option would be silently ignored.
    return Status::InvalidArgument(
        "cold_start_fallback is not supported by a sharded service");
  }
  // The builder source and the shards are independent until seeding;
  // train them all in parallel, one thread each.
  std::vector<Status> statuses(shards_.size() + 1, Status::Ok());
  std::vector<std::thread> trainers;
  trainers.reserve(statuses.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    trainers.emplace_back([this, &dataset, train_end, &statuses, i] {
      statuses[i] = shards_[i]->Train(dataset, train_end);
    });
  }
  trainers.emplace_back([this, &dataset, train_end, &statuses] {
    statuses.back() = source_->Train(dataset, train_end);
  });
  for (std::thread& t : trainers) t.join();
  for (const Status& status : statuses) {
    SIMGRAPH_RETURN_IF_ERROR(status);
  }
  // Appliers never build a graph of their own: seed every one, local
  // or remote, with the source's post-train stats; refresh deltas carry
  // them forward from there.
  uint64_t epoch = 0;
  int64_t edges = 0;
  source_->GraphStats(&epoch, &edges);
  for (DeltaApplierRecommender* applier : appliers_) {
    applier->SeedRemoteGraphStats(epoch, edges);
  }
  if (options_.replication != nullptr) {
    options_.replication->SeedHandshake(
        epoch, edges, TrainingFingerprint(dataset, train_end));
  }
  return Status::Ok();
}

void ShardedService::Start() {
  // Shards first: the pipeline's fan-out lands in live shard queues.
  for (const auto& shard : shards_) shard->Start();
  pipeline_->Start();
  SIMGRAPH_GAUGE_SET("serve.shards",
                     static_cast<double>(router_.num_shards()));
}

void ShardedService::Stop() {
  // Pipeline first so everything still buffered in the global queue is
  // built and fanned out into the (still running) shard queues; then
  // the shards drain those.
  pipeline_->Stop();
  for (const auto& shard : shards_) shard->Stop();
}

uint64_t ShardedService::Publish(const RetweetEvent& event) {
  // No publish mutex: the pipeline's global queue assigns the sequence
  // number and its single builder thread is the only shard publisher,
  // so per-shard order is preserved by construction (docs/ingest.md).
  return pipeline_->Publish(event);
}

uint64_t ShardedService::AppliedSeq() const {
  uint64_t min_seq = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    const uint64_t seq = shards_[i]->AppliedSeq();
    if (i == 0 || seq < min_seq) min_seq = seq;
  }
  if (options_.replication != nullptr) {
    // Deployment-wide applied prefix: the slowest LIVE remote replica
    // counts too; degraded replicas are already out of the live set.
    min_seq = std::min(min_seq, options_.replication->MinAckedSeq());
  }
  return min_seq;
}

void ShardedService::WaitForApplied(uint64_t seq) {
  for (const auto& shard : shards_) shard->WaitForApplied(seq);
  if (options_.replication != nullptr) {
    // Local shards first: once they applied `seq` the builder has
    // certainly built it, so the remote wait can only be satisfied (or
    // resolved by degrading a stalled replica) — never wait forever on
    // a sequence that was never shipped.
    options_.replication->WaitForAcked(seq);
  }
}

RecommendResponse ShardedService::Recommend(const RecommendRequest& request) {
  // Passive under the TCP front-end's scope (same request id), owning
  // when the sharded API is called directly — either way the route span
  // and the downstream shard's spans land in one connected tree.
  trace::RequestScope scope("request/recommend");
  int32_t shard;
  {
    SIMGRAPH_TRACE_SPAN("request/route", "serve");
    shard = router_.ShardOf(request.user);
  }
  SIMGRAPH_COUNTER_ADD("serve.router.requests", 1);
  return shards_[static_cast<size_t>(shard)]->Recommend(request);
}

std::vector<RecommendResponse> ShardedService::RecommendBatch(
    const std::vector<RecommendRequest>& requests) {
  if (requests.size() <= 1) {
    // A batch of one routes like a single request (keeps its route span
    // and serve.router.requests accounting).
    return ServingBackend::RecommendBatch(requests);
  }
  // One scope per batch: the shards' per-request recommend spans nest
  // under it, so a trace shows the whole batch as one connected tree.
  trace::RequestScope scope("request/recommend_batch");
  const size_t n = requests.size();
  const size_t num_shards = shards_.size();
  std::vector<std::vector<size_t>> by_shard(num_shards);
  {
    SIMGRAPH_TRACE_SPAN("request/route_batch", "serve");
    for (size_t i = 0; i < n; ++i) {
      by_shard[static_cast<size_t>(router_.ShardOf(requests[i].user))]
          .push_back(i);
    }
  }
  std::vector<RecommendResponse> responses(n);
  std::vector<RecommendRequest> sub;
  int64_t shards_hit = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    const std::vector<size_t>& indices = by_shard[s];
    if (indices.empty()) continue;
    ++shards_hit;
    sub.clear();
    sub.reserve(indices.size());
    for (const size_t i : indices) sub.push_back(requests[i]);
    std::vector<RecommendResponse> shard_responses =
        shards_[s]->RecommendBatch(sub);
    for (size_t j = 0; j < indices.size(); ++j) {
      responses[indices[j]] = std::move(shard_responses[j]);
    }
  }
  SIMGRAPH_COUNTER_ADD("serve.router.batch.requests",
                       static_cast<int64_t>(n));
  SIMGRAPH_COUNTER_ADD("serve.router.batch.flushes", shards_hit);
  SIMGRAPH_HISTOGRAM_RECORD("serve.router.batch.size",
                            static_cast<double>(n));
  SIMGRAPH_HISTOGRAM_RECORD("serve.router.batch.shards",
                            static_cast<double>(shards_hit));
  return responses;
}

BackendStats ShardedService::Stats() const {
  BackendStats stats;
  stats.shards.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    const BackendStats shard = shards_[i]->Stats();
    const ShardStats& entry = shard.shards.front();
    stats.shards.push_back(entry);
    stats.cached_entries += entry.cached_entries;
    stats.graph_epoch = std::max(stats.graph_epoch, entry.graph_epoch);
    stats.graph_edges = std::max(stats.graph_edges, entry.graph_edges);
    if (i == 0 || entry.applied_seq < stats.applied_seq) {
      stats.applied_seq = entry.applied_seq;
    }
  }
  if (options_.replication != nullptr) {
    const uint64_t remote = options_.replication->MinAckedSeq();
    if (remote < stats.applied_seq) stats.applied_seq = remote;
  }
  // How far the slowest shard — local or live remote replica — trails
  // the builder, in events.
  const uint64_t built = pipeline_->built_seq();
  const uint64_t lag =
      built > stats.applied_seq ? built - stats.applied_seq : 0;
  SIMGRAPH_GAUGE_SET("serve.ingest.delta.lag_events", static_cast<double>(lag));
  return stats;
}

void ShardedService::RotateWindows(int64_t window,
                                   std::vector<ShardWindow>* out) {
  for (auto& shard : shards_) shard->RotateWindows(window, out);
}

void ShardedService::CollectSlowRequests(
    int32_t max, std::vector<SlowRequestEntry>* out) const {
  if (out == nullptr || max <= 0) return;
  std::vector<SlowRequestEntry> merged;
  for (const auto& shard : shards_) shard->CollectSlowRequests(max, &merged);
  std::sort(merged.begin(), merged.end(),
            [](const SlowRequestEntry& a, const SlowRequestEntry& b) {
              return a.total_us > b.total_us;
            });
  if (static_cast<int32_t>(merged.size()) > max) {
    merged.resize(static_cast<size_t>(max));
  }
  out->insert(out->end(), merged.begin(), merged.end());
}

}  // namespace serve
}  // namespace simgraph
