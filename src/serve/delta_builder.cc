#include "serve/delta_builder.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"
#include "util/metrics.h"
#include "util/timer.h"
#include "util/trace.h"

namespace simgraph {
namespace serve {

std::vector<std::shared_ptr<const SimGraphDelta>> SplitDeltaByShard(
    const SimGraphDelta& delta, const ShardRouter& router) {
  const auto num_shards = static_cast<size_t>(router.num_shards());
  if (num_shards == 1) {
    return {std::make_shared<const SimGraphDelta>(delta)};
  }
  std::vector<SimGraphDelta> parts(num_shards);
  for (SimGraphDelta& part : parts) {
    part.seq_begin = delta.seq_begin;
    part.seq_end = delta.seq_end;
    part.graph_version = delta.graph_version;
    part.snapshot_epoch = delta.snapshot_epoch;
    part.flags = delta.flags;
    part.evict_before = delta.evict_before;
    part.snapshot = delta.snapshot;
  }
  auto part_of = [&](UserId user) -> SimGraphDelta& {
    return parts[static_cast<size_t>(router.ShardOf(user))];
  };
  for (const SimGraphDelta::Consume& op : delta.consumed) {
    part_of(op.user).consumed.push_back(op);
  }
  for (const SimGraphDelta::Deposit& op : delta.deposits) {
    part_of(op.user).deposits.push_back(op);
  }
  for (const UserId user : delta.invalidated) {
    part_of(user).invalidated.push_back(user);
  }
  std::vector<std::shared_ptr<const SimGraphDelta>> out;
  out.reserve(num_shards);
  for (SimGraphDelta& part : parts) {
    out.push_back(std::make_shared<const SimGraphDelta>(std::move(part)));
  }
  return out;
}

DeltaBuilder::DeltaBuilder(SimGraphServingRecommender* source,
                           std::vector<RecommendationService*> shards,
                           const ShardRouter& router,
                           DeltaBuilderOptions options)
    : source_(source),
      shards_(std::move(shards)),
      router_(router),
      options_(options),
      queue_(options.queue_capacity) {
  SIMGRAPH_CHECK(!shards_.empty());
  SIMGRAPH_CHECK_EQ(static_cast<size_t>(router_.num_shards()),
                    shards_.size());
  if (options_.max_batch_events < 1) options_.max_batch_events = 1;
}

DeltaBuilder::~DeltaBuilder() { Stop(); }

void DeltaBuilder::Start() {
  if (started_.exchange(true)) return;
  builder_ = std::thread([this] { BuildLoop(); });
}

void DeltaBuilder::Stop() {
  if (stopped_.exchange(true)) return;
  queue_.Close();
  if (builder_.joinable()) builder_.join();
}

uint64_t DeltaBuilder::Publish(const RetweetEvent& event) {
  SIMGRAPH_CHECK(started_.load()) << "Start must be called before Publish";
  IngestItem item;
  item.event = event;
  if (trace::RequestScope* scope = trace::CurrentScope();
      scope != nullptr && scope->collecting()) {
    item.request_id = scope->request_id();
    item.traced = scope->recording();
    item.enqueue_us = trace::NowMicros();
  }
  const auto ticket = queue_.Push(std::move(item));
  if (!ticket.has_value()) return 0;  // stopped; event rejected
  const auto depth = static_cast<int64_t>(queue_.size());
  SIMGRAPH_GAUGE_SET("serve.ingest.queue_depth", static_cast<double>(depth));
  int64_t max = queue_depth_max_.load(std::memory_order_relaxed);
  while (depth > max && !queue_depth_max_.compare_exchange_weak(
                            max, depth, std::memory_order_relaxed)) {
  }
  SIMGRAPH_GAUGE_SET(
      "serve.ingest.queue_depth_max",
      static_cast<double>(queue_depth_max_.load(std::memory_order_relaxed)));
  return *ticket + 1;  // tickets are 0-based, sequence numbers 1-based
}

void DeltaBuilder::CrashForTest() {
  crash_requested_.store(true, std::memory_order_release);
}

void DeltaBuilder::Recover() {
  // The crashed loop exited; join it so consumed_seq_/pending_ are
  // visible to the restarted thread, then resume from the exact queue
  // position — no event is lost or double-built.
  if (builder_.joinable()) builder_.join();
  crash_requested_.store(false, std::memory_order_release);
  builder_ = std::thread([this] { BuildLoop(); });
}

void DeltaBuilder::RecordQueueWait(const IngestItem& item) {
  if (item.request_id != 0 && item.traced && item.enqueue_us > 0) {
    const int64_t now_us = trace::NowMicros();
    trace::RecordRequestSpan("request/pipeline_wait", "serve",
                             item.enqueue_us, now_us - item.enqueue_us,
                             item.request_id);
  }
}

void DeltaBuilder::BuildLoop() {
  while (true) {
    if (crash_requested_.load(std::memory_order_acquire)) return;
    IngestItem item;
    if (pending_.has_value()) {
      item = std::move(*pending_);
      pending_.reset();
    } else {
      std::optional<IngestItem> popped = queue_.Pop();
      if (!popped.has_value()) break;  // closed and drained
      popped->seq = ++consumed_seq_;
      item = std::move(*popped);
    }
    if (crash_requested_.load(std::memory_order_acquire)) {
      // Simulated crash with one event in hand: park it for Recover so
      // the restart resumes exactly here.
      pending_ = std::move(item);
      return;
    }
    RecordQueueWait(item);
    const bool shipped =
        delta_mode() ? BuildAndShip(std::move(item)) : Forward(std::move(item));
    if (!shipped) return;  // a shard stopped; nothing more can land
  }
}

bool DeltaBuilder::BuildAndShip(IngestItem first) {
  const bool metrics_on = metrics::Enabled();
  WallTimer build_timer;
  scratch_.Clear();
  scratch_.seq_begin = first.seq;
  uint64_t seq_end = first.seq;
  uint64_t request_id = first.request_id;
  bool traced = first.traced;
  {
    // Adopt the publishing request on this thread so the build span
    // joins its trace tree (batched followers fold into the same span).
    std::optional<trace::RequestScope> scope;
    if (first.request_id != 0) {
      scope.emplace("request/build_delta", first.request_id, first.traced);
    }
    source_->ObserveRecordingDelta(first.event, &scratch_);
    // Opportunistic batching: drain whatever already queued up (bounded)
    // into the same delta, so a backlog amortises the fan-out cost.
    int64_t batched = 1;
    while (batched < options_.max_batch_events) {
      std::optional<IngestItem> next = queue_.TryPop();
      if (!next.has_value()) break;
      next->seq = ++consumed_seq_;
      RecordQueueWait(*next);
      source_->ObserveRecordingDelta(next->event, &scratch_);
      seq_end = next->seq;
      if (next->request_id != 0) {
        request_id = next->request_id;
        traced = next->traced;
      }
      ++batched;
    }
  }
  scratch_.seq_end = seq_end;
  std::sort(scratch_.invalidated.begin(), scratch_.invalidated.end());
  scratch_.invalidated.erase(
      std::unique(scratch_.invalidated.begin(), scratch_.invalidated.end()),
      scratch_.invalidated.end());

  if (metrics_on) {
    SIMGRAPH_HISTOGRAM_RECORD("serve.ingest.delta.build_us",
                              build_timer.ElapsedSeconds() * 1e6);
    SIMGRAPH_HISTOGRAM_RECORD("serve.ingest.delta.batch_events",
                              static_cast<double>(scratch_.num_events()));
    SIMGRAPH_HISTOGRAM_RECORD("serve.ingest.delta.bytes",
                              static_cast<double>(scratch_.ByteSize()));
    SIMGRAPH_HISTOGRAM_RECORD("serve.ingest.delta.edges",
                              static_cast<double>(scratch_.num_edge_ops()));
    SIMGRAPH_HISTOGRAM_RECORD("serve.ingest.delta.deposits",
                              static_cast<double>(scratch_.deposits.size()));
    SIMGRAPH_GAUGE_SET("serve.ingest.delta.built_seq",
                       static_cast<double>(seq_end));
  }
  if (options_.delta_observer) options_.delta_observer(scratch_);
  built_seq_.store(seq_end, std::memory_order_relaxed);

  WallTimer fanout_timer;
  std::vector<std::shared_ptr<const SimGraphDelta>> parts =
      SplitDeltaByShard(scratch_, router_);
  IngestItem out;
  out.seq = seq_end;
  out.request_id = request_id;
  out.traced = traced;
  out.enqueue_us = request_id != 0 ? trace::NowMicros() : 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    out.delta = std::move(parts[i]);
    if (shards_[i]->PublishItem(out) == 0) return false;  // shard stopped
  }
  if (metrics_on) {
    SIMGRAPH_HISTOGRAM_RECORD("serve.ingest.delta.fanout_us",
                              fanout_timer.ElapsedSeconds() * 1e6);
  }
  return true;
}

bool DeltaBuilder::Forward(IngestItem item) {
  // Replicated mode: every shard re-runs the incremental update itself.
  // Restart the queue-wait clock so each shard attributes only its own
  // local queueing.
  item.enqueue_us = item.request_id != 0 ? trace::NowMicros() : 0;
  built_seq_.store(item.seq, std::memory_order_relaxed);
  for (RecommendationService* shard : shards_) {
    if (shard->PublishItem(item) == 0) return false;  // shard stopped
  }
  return true;
}

}  // namespace serve
}  // namespace simgraph
