#ifndef SIMGRAPH_CORE_CANDIDATE_STORE_H_
#define SIMGRAPH_CORE_CANDIDATE_STORE_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "core/recommender.h"
#include "dataset/types.h"

namespace simgraph {

/// Per-user accumulator of candidate posts with scores, shared by the
/// message-centric recommenders (SimGraph, CF, Bayes) and every serving
/// replica. Handles the two recommendation hygiene rules of the protocol:
///   * never recommend a post the user already interacted with;
///   * never recommend an outdated post (older than the freshness window —
///     the paper's Section 3 concludes 72 h).
///
/// Layout: one flat open-addressing table per user. A table holds
/// uint32 tweet keys (dense catalogue indices) and double scores in two
/// parallel arrays, probes linearly from a multiplicative hash of the key
/// and deletes by backward shift, so it never carries tombstones. A
/// consumed tweet is the same slot holding the score kConsumed (-inf),
/// so one probe answers both the consumed check and the max-merge of a
/// deposit, and every score filter (`score > 0.0`) already skips it.
/// Scores must be finite: a sum that reached -inf would read as
/// consumed.
class CandidateStore {
 public:
  /// Score of a consumed slot.
  static constexpr double kConsumed = -std::numeric_limits<double>::infinity();

  /// `tweet_times[i]` is the publication time of tweet i (used for the
  /// freshness filter). The catalogue must fit below the empty-key value
  /// of the uint32 tables.
  CandidateStore(int32_t num_users, std::vector<Timestamp> tweet_times,
                 Timestamp freshness_window);

  /// Raises the score of `tweet` for `user` to at least `score`
  /// (keeping the max of repeated deposits). Returns true when the stored
  /// score actually changed — the serving layer's precise cache
  /// invalidation keys off this.
  bool Deposit(UserId user, TweetId tweet, double score);

  /// Adds `delta` to the score of `tweet` for `user`. Returns true when
  /// the stored score changed (i.e. delta != 0 and not consumed).
  bool Accumulate(UserId user, TweetId tweet, double delta);

  /// Marks that `user` interacted with `tweet`; it will never be
  /// recommended to them again (its stored score is dropped).
  void MarkConsumed(UserId user, TweetId tweet);

  /// True when MarkConsumed(user, tweet) was called before.
  bool IsConsumed(UserId user, TweetId tweet) const;

  /// Top-k fresh, unconsumed candidates for `user` at time `now`, best
  /// first; ties broken by tweet id for determinism.
  std::vector<ScoredTweet> TopK(UserId user, Timestamp now, int32_t k) const;

  /// Drops stale candidates for all users (call periodically to bound
  /// memory). A tweet is stale when older than the freshness window
  /// relative to `now`. Consumed marks are kept.
  void EvictStale(Timestamp now);

  /// EvictStale restricted to one user, so concurrent callers that stripe
  /// their locks per user (src/serve/) can evict without a global lock.
  void EvictStaleForUser(UserId user, Timestamp now);

  /// Calls `visit(tweet, score)` for every stored candidate of `user`
  /// (consumed tweets are skipped) in table order, until `visit` returns
  /// false. Returns false when `visit` stopped the walk early, so a
  /// deadline-aware scan can report itself partial. Everyone who needs
  /// no deadline should use TopK.
  template <typename Visit>
  bool ForEachCandidate(UserId user, Visit&& visit) const {
    const Table& table = tables_[static_cast<size_t>(user)];
    for (uint32_t i = 0; i < table.capacity(); ++i) {
      if (table.key(i) == kEmptyKey || table.score(i) == kConsumed) continue;
      if (!visit(static_cast<TweetId>(table.key(i)), table.score(i))) {
        return false;
      }
    }
    return true;
  }

  /// True when `tweet` is within the freshness window at time `now`.
  bool IsFresh(TweetId tweet, Timestamp now) const {
    return tweet_times_[static_cast<size_t>(tweet)] + freshness_window_ >= now;
  }

  /// Publication time of `tweet`.
  Timestamp TweetTime(TweetId tweet) const {
    return tweet_times_[static_cast<size_t>(tweet)];
  }

  /// Stored candidates over all users (consumed marks not counted).
  int64_t TotalCandidates() const;

 private:
  static constexpr uint32_t kEmptyKey = std::numeric_limits<uint32_t>::max();

  /// One user's table: `capacity()` slots (0 before the first insert,
  /// then a power of two), at most 7/8 occupied.
  class Table {
   public:
    uint32_t capacity() const { return capacity_; }
    uint32_t key(uint32_t slot) const { return keys_[slot]; }
    double score(uint32_t slot) const { return scores_[slot]; }
    double& score(uint32_t slot) { return scores_[slot]; }

    /// Slot of `key`, or capacity() when absent.
    uint32_t Find(uint32_t key) const;
    /// Slot of `key`, inserted with score `initial` when absent.
    uint32_t FindOrInsert(uint32_t key, double initial);
    /// Empties the slot of every key/score for which `erase(key, score)`
    /// holds, shifting later chain members back into the holes.
    template <typename Pred>
    void EraseIf(Pred erase);

   private:
    uint32_t Home(uint32_t key) const;
    /// Places an absent key in the first empty slot of its chain.
    uint32_t Place(uint32_t key, double score);
    void EraseAt(uint32_t slot);
    void Grow();

    std::unique_ptr<uint32_t[]> keys_;
    std::unique_ptr<double[]> scores_;
    uint32_t capacity_ = 0;
    uint32_t size_ = 0;  // occupied slots, consumed ones included
  };

  std::vector<Timestamp> tweet_times_;
  Timestamp freshness_window_;
  std::vector<Table> tables_;  // per user
};

/// Orders `tweets` best first — score descending, ties by ascending tweet
/// id, a total order — and keeps the first k.
void KeepTopK(std::vector<ScoredTweet>* tweets, int32_t k);

}  // namespace simgraph

#endif  // SIMGRAPH_CORE_CANDIDATE_STORE_H_
