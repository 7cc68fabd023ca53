#ifndef SIMGRAPH_SERVE_CANDIDATE_STATE_H_
#define SIMGRAPH_SERVE_CANDIDATE_STATE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "core/candidate_store.h"
#include "core/simgraph_delta.h"
#include "dataset/dataset.h"
#include "serve/serving_recommender.h"
#include "util/status.h"

namespace simgraph {
namespace serve {

/// The striped per-user candidate/consumed state every serving replica
/// carries, extracted from SimGraphServingRecommender so the delta
/// pipeline's cheap DeltaApplier shards share the exact read path (and
/// the exact mutation semantics — replicas applying the same ordered
/// ops stay bit-identical) with the full builder recommender.
///
/// The state itself is a CandidateStore: one flat open-addressing table
/// per user, where a consumed tweet is a slot holding -inf.
///
/// Threading model: one ingest thread calls the mutators; any number of
/// reader threads call ScanTopK concurrently. A user's state is guarded
/// by the stripe lock of their id, taken exclusively for writes and
/// shared for reads.
class CandidateState {
 public:
  /// Builds the store over the dataset's tweet catalogue, creates
  /// min(num_stripes, num_users) stripes, and marks every training
  /// retweet consumed — the state every replica starts from. Image-backed
  /// datasets report their population via Dataset::num_users_hint.
  Status Init(const Dataset& dataset, int64_t train_end,
              Timestamp freshness_window, int32_t num_stripes);

  bool initialized() const { return store_ != nullptr; }
  int32_t num_users() const { return num_users_; }

  /// Marks `user` consumed `tweet` (never recommended to them again).
  void MarkConsumed(UserId user, TweetId tweet);

  /// Raises the stored score (max-merge); true when it actually changed.
  bool Deposit(UserId user, TweetId tweet, double score);

  /// Drops candidates stale at `now` for every user. Stale candidates
  /// are invisible to ScanTopK, so this never changes an answer — it
  /// only bounds memory.
  void EvictStale(Timestamp now);

  /// Replays a builder-recorded delta's candidate ops — consumed marks,
  /// then deposits — taking each stripe lock once instead of once per
  /// op. A delta carries thousands of deposits, so this is the applier
  /// hot path; per-op locking would make replay cost rival the full
  /// update it replaces. Bit-identical to the per-op sequence: ops on
  /// different users never interact, StripeOf is a pure function of the
  /// user, and bucketing by stripe keeps every user's ops in recorded
  /// order (all consumed marks before any deposit, as the builder
  /// mutated its own state). The eviction sweep is NOT replayed here —
  /// callers check `delta.evict_before` and call EvictStale themselves.
  void ReplayDeltaOps(const SimGraphDelta& delta);

  /// Deadline-aware top-k scan over the user's fresh, unconsumed
  /// candidates; best first, ties broken by tweet id. The table walk
  /// checks the clock every 128 candidates and stops at the deadline,
  /// returning what it found with `complete` false.
  RecommendOutcome ScanTopK(UserId user, Timestamp now, int32_t k,
                            std::chrono::steady_clock::time_point deadline)
      const;

  /// The underlying store (callers must hold the user's stripe).
  CandidateStore& store() { return *store_; }
  std::shared_mutex& StripeOf(UserId user) const {
    return *stripes_[static_cast<size_t>(user) % stripes_.size()];
  }

 private:
  std::unique_ptr<CandidateStore> store_;
  std::vector<std::unique_ptr<std::shared_mutex>> stripes_;
  int32_t num_users_ = 0;
  // Scratch for ReplayDeltaOps: op indices bucketed by stripe, reused
  // across deltas to avoid reallocation. Safe unsynchronized because
  // only the single ingest thread mutates this state (see class doc).
  std::vector<std::vector<uint32_t>> consumed_by_stripe_;
  std::vector<std::vector<uint32_t>> deposits_by_stripe_;
};

}  // namespace serve
}  // namespace simgraph

#endif  // SIMGRAPH_SERVE_CANDIDATE_STATE_H_
