#include "serve/candidate_state.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "util/logging.h"
#include "util/trace.h"

namespace simgraph {
namespace serve {
namespace {

/// Deadline checks happen once per this many candidates scanned, keeping
/// the steady_clock overhead off the per-candidate fast path.
constexpr int64_t kDeadlineCheckStride = 128;

}  // namespace

Status CandidateState::Init(const Dataset& dataset, int64_t train_end,
                            Timestamp freshness_window) {
  if (train_end < 0 || train_end > dataset.num_retweets()) {
    return Status::InvalidArgument("train_end out of range");
  }
  num_users_ = dataset.num_users();

  std::vector<Timestamp> tweet_times;
  tweet_times.reserve(dataset.tweets.size());
  for (const Tweet& t : dataset.tweets) tweet_times.push_back(t.time);
  store_ = std::make_unique<CandidateStore>(num_users_,
                                            std::move(tweet_times),
                                            freshness_window);

  stripes_.clear();
  const size_t stripe_count = std::min<size_t>(
      kNumStripes, std::max<size_t>(1, static_cast<size_t>(num_users_)));
  stripes_.reserve(stripe_count);
  for (size_t i = 0; i < stripe_count; ++i) {
    stripes_.push_back(std::make_unique<std::shared_mutex>());
  }

  for (int64_t i = 0; i < train_end; ++i) {
    const RetweetEvent& e = dataset.retweets[static_cast<size_t>(i)];
    store_->MarkConsumed(e.user, e.tweet);
  }
  return Status::Ok();
}

void CandidateState::MarkConsumed(UserId user, TweetId tweet) {
  std::unique_lock<std::shared_mutex> lock(StripeOf(user));
  store_->MarkConsumed(user, tweet);
}

bool CandidateState::IsConsumed(UserId user, TweetId tweet) const {
  std::shared_lock<std::shared_mutex> lock(StripeOf(user));
  return store_->IsConsumed(user, tweet);
}

bool CandidateState::Deposit(UserId user, TweetId tweet, double score) {
  std::unique_lock<std::shared_mutex> lock(StripeOf(user));
  return store_->Deposit(user, tweet, score);
}

void CandidateState::ReplayDeltaOps(const SimGraphDelta& delta) {
  const size_t stripe_count = stripes_.size();
  consumed_by_stripe_.resize(stripe_count);
  deposits_by_stripe_.resize(stripe_count);
  for (auto& bucket : consumed_by_stripe_) bucket.clear();
  for (auto& bucket : deposits_by_stripe_) bucket.clear();
  for (uint32_t i = 0; i < delta.consumed.size(); ++i) {
    const size_t stripe =
        static_cast<size_t>(delta.consumed[i].user) % stripe_count;
    consumed_by_stripe_[stripe].push_back(i);
  }
  for (uint32_t i = 0; i < delta.deposits.size(); ++i) {
    const size_t stripe =
        static_cast<size_t>(delta.deposits[i].user) % stripe_count;
    deposits_by_stripe_[stripe].push_back(i);
  }
  for (size_t s = 0; s < stripe_count; ++s) {
    if (consumed_by_stripe_[s].empty() && deposits_by_stripe_[s].empty()) {
      continue;
    }
    std::unique_lock<std::shared_mutex> lock(*stripes_[s]);
    for (const uint32_t i : consumed_by_stripe_[s]) {
      const SimGraphDelta::Consume& op = delta.consumed[i];
      store_->MarkConsumed(op.user, op.tweet);
    }
    for (const uint32_t i : deposits_by_stripe_[s]) {
      const SimGraphDelta::Deposit& op = delta.deposits[i];
      store_->Deposit(op.user, op.tweet, op.score);
    }
  }
}

void CandidateState::EvictStale(Timestamp now) {
  for (UserId u = 0; u < num_users_; ++u) {
    std::unique_lock<std::shared_mutex> lock(StripeOf(u));
    store_->EvictStaleForUser(u, now);
  }
}

RecommendOutcome CandidateState::ScanTopK(
    UserId user, Timestamp now, int32_t k,
    std::chrono::steady_clock::time_point deadline) const {
  SIMGRAPH_CHECK(store_ != nullptr) << "Init must be called first";
  RecommendOutcome outcome;
  std::shared_lock<std::shared_mutex> lock(StripeOf(user), std::defer_lock);
  {
    // Time spent waiting for the candidate stripe (contended with the
    // applier depositing scores) shows as its own request stage.
    SIMGRAPH_TRACE_SPAN("request/snapshot_pin", "serve");
    lock.lock();
  }
  SIMGRAPH_TRACE_SPAN("request/candidate_scoring", "serve");
  std::vector<ScoredTweet> fresh;
  int64_t scanned = 0;
  outcome.complete =
      store_->ForEachCandidate(user, [&](TweetId tweet, double score) {
        if (scanned++ % kDeadlineCheckStride == 0 &&
            std::chrono::steady_clock::now() >= deadline) {
          return false;
        }
        if (score > 0.0 && store_->IsFresh(tweet, now) &&
            store_->TweetTime(tweet) <= now) {
          fresh.push_back(ScoredTweet{tweet, score});
        }
        return true;
      });
  lock.unlock();
  KeepTopK(&fresh, k);
  outcome.tweets = std::move(fresh);
  return outcome;
}

}  // namespace serve
}  // namespace simgraph
