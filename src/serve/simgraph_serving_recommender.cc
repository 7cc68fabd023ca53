#include "serve/simgraph_serving_recommender.h"

#include <algorithm>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/similarity.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/timer.h"
#include "util/trace.h"

namespace simgraph {
namespace serve {
namespace {

/// Stale candidates are evicted every this many observed events.
constexpr int64_t kEvictEvery = 50000;
/// Cap on the followees consulted for a cold-start query.
constexpr int64_t kColdStartMaxFollowees = 30;

}  // namespace

SimGraphServingRecommender::SimGraphServingRecommender(
    ServingSimGraphOptions options)
    : options_(std::move(options)) {}

Status SimGraphServingRecommender::Train(const Dataset& dataset,
                                         int64_t train_end) {
  if (train_end < 0 || train_end > dataset.num_retweets()) {
    return Status::InvalidArgument("train_end out of range");
  }
  // The follow graph comes from the dataset or from the loaded
  // `graph_image`. Only this builder reads it: shards and replicas
  // train candidate tables alone and hold no graph.
  const Digraph& follow_graph = options_.graph_image != nullptr
                                    ? options_.graph_image->graph()
                                    : dataset.follow_graph;
  if (dataset.num_users() != follow_graph.num_nodes()) {
    return Status::InvalidArgument(
        "dataset population disagrees with the follow graph");
  }
  num_users_ = follow_graph.num_nodes();
  follow_graph_ = &follow_graph;
  // The candidate tables do not read the graph: fill them on their own
  // thread while the seed graph builds.
  Status candidates = Status::Ok();
  std::jthread candidate_init([&] {
    candidates = state_.Init(dataset, train_end, options_.freshness_window);
  });
  // The seed graph is built once, on every core, and published as the
  // first snapshot. With refreshes the incremental graph builds it and
  // keeps maintaining it; without, nothing reads an incremental graph.
  auto seed = std::make_shared<SimGraph>();
  Status graph = Status::Ok();
  if (options_.snapshot_refresh_events > 0) {
    incremental_ =
        std::make_unique<IncrementalSimGraph>(follow_graph, options_.graph);
    graph = incremental_->Initialize(dataset, train_end, seed.get());
  } else {
    SimGraphOptions build_options = options_.graph;
    build_options.num_threads = 0;
    *seed = BuildSimGraph(follow_graph, ProfileStore(dataset, train_end),
                          build_options);
  }
  candidate_init.join();
  SIMGRAPH_RETURN_IF_ERROR(graph);
  SIMGRAPH_RETURN_IF_ERROR(candidates);
  seed->NumPresentNodes();
  PublishSnapshot(std::move(seed));

  tweet_author_.clear();
  tweet_author_.reserve(dataset.tweets.size());
  for (const Tweet& t : dataset.tweets) tweet_author_.push_back(t.author);

  // A user is never recommended a post they already shared (training
  // retweets are consumed by CandidateState::Init); seed sets of tweets
  // still fresh at the split carry over into the test period.
  const Timestamp split_time =
      train_end > 0 ? dataset.retweets[static_cast<size_t>(train_end - 1)].time
                    : 0;
  tweet_state_.clear();
  for (int64_t i = 0; i < train_end; ++i) {
    const RetweetEvent& e = dataset.retweets[static_cast<size_t>(i)];
    const Timestamp tweet_time =
        dataset.tweets[static_cast<size_t>(e.tweet)].time;
    if (tweet_time + options_.freshness_window >= split_time) {
      tweet_state_[e.tweet].seeds.push_back(e.user);
    }
  }
  observed_ = 0;
  num_propagations_ = 0;
  return Status::Ok();
}

void SimGraphServingRecommender::RefreshSnapshot() {
  SIMGRAPH_TRACE_SPAN("SimGraphServingRecommender::RefreshSnapshot", "serve");
  PublishSnapshot(std::make_shared<const SimGraph>(incremental_->Snapshot()));
}

void SimGraphServingRecommender::ReplaceSimGraph(SimGraph sim_graph) {
  SIMGRAPH_CHECK(state_.initialized()) << "Train must be called first";
  SIMGRAPH_CHECK_EQ(options_.snapshot_refresh_events, 0)
      << "a snapshot refresh would overwrite the replaced graph";
  PublishSnapshot(std::make_shared<const SimGraph>(std::move(sim_graph)));
}

void SimGraphServingRecommender::PublishSnapshot(
    std::shared_ptr<const SimGraph> snapshot) {
  auto propagator = std::make_unique<Propagator>(*snapshot);
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_ = std::move(snapshot);
    propagator_ = std::move(propagator);
    ++graph_epoch_;
    SIMGRAPH_GAUGE_SET("serve.snapshot.epoch",
                       static_cast<double>(graph_epoch_));
  }
  SIMGRAPH_COUNTER_ADD("serve.snapshot.refreshes", 1);
}

void SimGraphServingRecommender::BindShard(int32_t shard) {
  if (shard < 0) return;
  shard_propagation_us_ = &metrics::Registry::Global().histogram(
      metrics::ShardMetricName("serve.apply.propagation_us", shard));
}

AffectedUsers SimGraphServingRecommender::ObserveAffected(
    const RetweetEvent& event) {
  return ObserveRecordingDelta(event, nullptr);
}

AffectedUsers SimGraphServingRecommender::ObserveRecordingDelta(
    const RetweetEvent& event, SimGraphDelta* delta) {
  SIMGRAPH_CHECK(state_.initialized()) << "Train must be called first";
  AffectedUsers affected;

  // The similarity graph absorbs every event, known tweet or not: new
  // posts keep shaping user-user similarity even before they are part of
  // the recommendable catalogue. Without refreshes nothing reads it.
  if (incremental_ != nullptr) incremental_->Apply(event);
  ++observed_;
  if (options_.snapshot_refresh_events > 0 &&
      observed_ % options_.snapshot_refresh_events == 0) {
    SIMGRAPH_SCOPED_LATENCY("serve.snapshot.refresh_seconds");
    RefreshSnapshot();
    if (delta != nullptr) {
      delta->flags |= SimGraphDelta::kFlagSnapshotRefresh;
      GraphStats(&delta->snapshot_epoch, &delta->graph_edges);
    }
  }

  if (event.tweet < 0 ||
      event.tweet >= static_cast<int64_t>(tweet_author_.size())) {
    // Unknown to the tweet catalogue: no author/timestamp, so it cannot
    // be recommended yet; only the graph learned from it.
    SIMGRAPH_COUNTER_ADD("serve.ingest.unknown_tweets", 1);
    return affected;
  }

  const UserId author = tweet_author_[static_cast<size_t>(event.tweet)];
  state_.MarkConsumed(event.user, event.tweet);
  affected.users.push_back(event.user);
  state_.MarkConsumed(author, event.tweet);
  affected.users.push_back(author);
  if (delta != nullptr) {
    delta->consumed.push_back({event.user, event.tweet});
    delta->consumed.push_back({author, event.tweet});
  }

  TweetState& state = tweet_state_[event.tweet];
  state.seeds.push_back(event.user);
  // Postponed computation (Section 5.4): a retweet arriving within delta
  // of the tweet's last propagation only joins the seed set of the next
  // run. Delta 0 propagates on every retweet, whatever its timestamp.
  const bool due = options_.postpone_delta == 0 ||
                   state.last_propagation < 0 ||
                   event.time - state.last_propagation >=
                       options_.postpone_delta;
  if (due) {
    state.last_propagation = event.time;
    PropagateTweet(event.tweet, state.seeds, delta, &affected);
  }

  // Stale candidates are invisible to TopK, so evicting them never
  // changes an answer — no invalidation needed.
  if (observed_ % kEvictEvery == 0) {
    state_.EvictStale(event.time);
    if (delta != nullptr) delta->evict_before = event.time;
  }

  std::sort(affected.users.begin(), affected.users.end());
  affected.users.erase(
      std::unique(affected.users.begin(), affected.users.end()),
      affected.users.end());
  if (delta != nullptr) {
    delta->invalidated.insert(delta->invalidated.end(),
                              affected.users.begin(), affected.users.end());
  }
  return affected;
}

void SimGraphServingRecommender::PropagateTweet(
    TweetId tweet, const std::vector<UserId>& seeds, SimGraphDelta* delta,
    AffectedUsers* affected) {
  const bool metrics_on = metrics::Enabled();
  WallTimer propagation_timer;
  propagator_->PropagateInto(seeds, static_cast<int64_t>(seeds.size()),
                             options_.propagation, propagation_scratch_,
                             &propagation_result_);
  if (metrics_on) {
    const double us = propagation_timer.ElapsedSeconds() * 1e6;
    SIMGRAPH_HISTOGRAM_RECORD("serve.apply.propagation_us", us);
    if (shard_propagation_us_ != nullptr) shard_propagation_us_->Record(us);
  }
  ++num_propagations_;
  for (const UserScore& us : propagation_result_.scores) {
    if (us.score < options_.min_deposit_score) continue;
    if (state_.Deposit(us.user, tweet, us.score)) {
      affected->users.push_back(us.user);
      if (delta != nullptr) {
        delta->deposits.push_back({us.user, tweet, us.score});
      }
    }
  }
}

std::vector<ScoredTweet> SimGraphServingRecommender::Recommend(UserId user,
                                                               Timestamp now,
                                                               int32_t k) {
  return RecommendUntil(user, now, k,
                        std::chrono::steady_clock::time_point::max())
      .tweets;
}

RecommendOutcome SimGraphServingRecommender::RecommendUntil(
    UserId user, Timestamp now, int32_t k,
    std::chrono::steady_clock::time_point deadline) {
  SIMGRAPH_CHECK(state_.initialized()) << "Train must be called first";
  RecommendOutcome own = state_.ScanTopK(user, now, k, deadline);
  if (!own.tweets.empty() || !own.complete ||
      !options_.cold_start_fallback || !IsColdUser(user)) {
    return own;
  }
  SIMGRAPH_COUNTER_ADD("recommend.simgraph.cold_start_calls", 1);
  return ColdStartRecommend(user, now, k, deadline);
}

bool SimGraphServingRecommender::IsColdUser(UserId user) const {
  const std::shared_ptr<const SimGraph> snapshot = GraphSnapshot();
  const Digraph& graph = snapshot->graph;
  return graph.num_nodes() == 0 ||
         (graph.OutDegree(user) == 0 && graph.InDegree(user) == 0);
}

RecommendOutcome SimGraphServingRecommender::ColdStartRecommend(
    UserId user, Timestamp now, int32_t k,
    std::chrono::steady_clock::time_point deadline) const {
  RecommendOutcome out;
  const auto followees = follow_graph_->OutNeighbors(user);
  const int64_t limit = std::min<int64_t>(
      static_cast<int64_t>(followees.size()), kColdStartMaxFollowees);
  // Pool the followees' own candidate lists; a post recommended to many
  // followees accumulates score, scaled by the number consulted.
  std::unordered_map<TweetId, double> pooled;
  for (int64_t i = 0; i < limit && out.complete; ++i) {
    const RecommendOutcome followee = state_.ScanTopK(
        followees[static_cast<size_t>(i)], now, k, deadline);
    out.complete = followee.complete;
    for (const ScoredTweet& st : followee.tweets) {
      if (state_.IsConsumed(user, st.tweet)) continue;
      pooled[st.tweet] += st.score / static_cast<double>(limit);
    }
  }
  out.tweets.reserve(pooled.size());
  for (const auto& [tweet, score] : pooled) {
    out.tweets.push_back(ScoredTweet{tweet, score});
  }
  KeepTopK(&out.tweets, k);
  return out;
}

std::shared_ptr<const SimGraph> SimGraphServingRecommender::GraphSnapshot()
    const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

uint64_t SimGraphServingRecommender::graph_epoch() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return graph_epoch_;
}

bool SimGraphServingRecommender::GraphStats(uint64_t* epoch,
                                            int64_t* edges) const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  if (snapshot_ == nullptr) return false;
  *epoch = graph_epoch_;
  *edges = snapshot_->graph.num_edges();
  return true;
}

}  // namespace serve
}  // namespace simgraph
