#include "core/candidate_store.h"

#include <algorithm>
#include <bit>

#include "util/logging.h"

namespace simgraph {

uint32_t CandidateStore::Table::Home(uint32_t key) const {
  // Fibonacci hashing: the top bits of key * 2^32/phi. Keys are catalogue
  // indices, so a user's candidates cluster in id ranges and share low
  // bits; the multiply spreads both across the table.
  const int shift = 32 - std::countr_zero(capacity_);
  return (key * 0x9E3779B9u) >> shift;
}

uint32_t CandidateStore::Table::Find(uint32_t key) const {
  if (capacity_ == 0) return capacity_;
  const uint32_t mask = capacity_ - 1;
  for (uint32_t slot = Home(key);; slot = (slot + 1) & mask) {
    if (keys_[slot] == key) return slot;
    if (keys_[slot] == kEmptyKey) return capacity_;
  }
}

uint32_t CandidateStore::Table::FindOrInsert(uint32_t key, double initial) {
  if (capacity_ != 0) {
    const uint32_t mask = capacity_ - 1;
    uint32_t slot = Home(key);
    for (; keys_[slot] != kEmptyKey; slot = (slot + 1) & mask) {
      if (keys_[slot] == key) return slot;
    }
    if ((uint64_t{size_} + 1) * 8 <= uint64_t{capacity_} * 7) {
      keys_[slot] = key;
      scores_[slot] = initial;
      ++size_;
      return slot;
    }
  }
  Grow();
  return Place(key, initial);
}

uint32_t CandidateStore::Table::Place(uint32_t key, double score) {
  const uint32_t mask = capacity_ - 1;
  uint32_t slot = Home(key);
  while (keys_[slot] != kEmptyKey) slot = (slot + 1) & mask;
  keys_[slot] = key;
  scores_[slot] = score;
  ++size_;
  return slot;
}

void CandidateStore::Table::Grow() {
  const uint32_t old_capacity = capacity_;
  std::unique_ptr<uint32_t[]> old_keys = std::move(keys_);
  std::unique_ptr<double[]> old_scores = std::move(scores_);
  capacity_ = old_capacity == 0 ? 4 : old_capacity * 2;
  SIMGRAPH_CHECK_GT(capacity_, old_capacity) << "candidate table overflow";
  keys_ = std::make_unique_for_overwrite<uint32_t[]>(capacity_);
  scores_ = std::make_unique_for_overwrite<double[]>(capacity_);
  std::fill_n(keys_.get(), capacity_, kEmptyKey);
  size_ = 0;
  for (uint32_t slot = 0; slot < old_capacity; ++slot) {
    if (old_keys[slot] != kEmptyKey) Place(old_keys[slot], old_scores[slot]);
  }
}

void CandidateStore::Table::EraseAt(uint32_t slot) {
  // Backward shift: walk the rest of the chain and move back every entry
  // whose home does not lie cyclically in (hole, entry], so no probe
  // from any home crosses an empty slot before reaching its key.
  const uint32_t mask = capacity_ - 1;
  uint32_t hole = slot;
  for (uint32_t next = (slot + 1) & mask; keys_[next] != kEmptyKey;
       next = (next + 1) & mask) {
    const uint32_t home = Home(keys_[next]);
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      keys_[hole] = keys_[next];
      scores_[hole] = scores_[next];
      hole = next;
    }
  }
  keys_[hole] = kEmptyKey;
  --size_;
}

template <typename Pred>
void CandidateStore::Table::EraseIf(Pred erase) {
  // A backward shift never moves an unvisited entry into a slot already
  // passed, so re-checking the erased slot before moving on visits every
  // entry. Entries that wrap around the table end may be visited twice;
  // a kept entry is kept again.
  for (uint32_t slot = 0; slot < capacity_;) {
    if (keys_[slot] != kEmptyKey && erase(keys_[slot], scores_[slot])) {
      EraseAt(slot);
    } else {
      ++slot;
    }
  }
  if (size_ == 0) *this = Table();
}

CandidateStore::CandidateStore(int32_t num_users,
                               std::vector<Timestamp> tweet_times,
                               Timestamp freshness_window)
    : tweet_times_(std::move(tweet_times)),
      freshness_window_(freshness_window),
      tables_(static_cast<size_t>(num_users)) {
  SIMGRAPH_CHECK_GT(freshness_window, 0);
  SIMGRAPH_CHECK_LE(tweet_times_.size(), size_t{kEmptyKey})
      << "tweet catalogue too large for uint32 candidate keys";
}

bool CandidateStore::Deposit(UserId user, TweetId tweet, double score) {
  Table& table = tables_[static_cast<size_t>(user)];
  double& slot = table.score(
      table.FindOrInsert(static_cast<uint32_t>(tweet), /*initial=*/0.0));
  if (slot == kConsumed || score <= slot) return false;
  slot = score;
  return true;
}

bool CandidateStore::Accumulate(UserId user, TweetId tweet, double delta) {
  Table& table = tables_[static_cast<size_t>(user)];
  double& slot = table.score(
      table.FindOrInsert(static_cast<uint32_t>(tweet), /*initial=*/0.0));
  if (slot == kConsumed) return false;
  slot += delta;
  return delta != 0.0;
}

void CandidateStore::MarkConsumed(UserId user, TweetId tweet) {
  Table& table = tables_[static_cast<size_t>(user)];
  table.score(table.FindOrInsert(static_cast<uint32_t>(tweet), kConsumed)) =
      kConsumed;
}

bool CandidateStore::IsConsumed(UserId user, TweetId tweet) const {
  const Table& table = tables_[static_cast<size_t>(user)];
  const uint32_t slot = table.Find(static_cast<uint32_t>(tweet));
  return slot < table.capacity() && table.score(slot) == kConsumed;
}

std::vector<ScoredTweet> CandidateStore::TopK(UserId user, Timestamp now,
                                              int32_t k) const {
  std::vector<ScoredTweet> fresh;
  ForEachCandidate(user, [&](TweetId tweet, double score) {
    if (score > 0.0 && IsFresh(tweet, now) && TweetTime(tweet) <= now) {
      fresh.push_back(ScoredTweet{tweet, score});
    }
    return true;
  });
  KeepTopK(&fresh, k);
  return fresh;
}

void CandidateStore::EvictStale(Timestamp now) {
  for (size_t u = 0; u < tables_.size(); ++u) {
    EvictStaleForUser(static_cast<UserId>(u), now);
  }
}

void CandidateStore::EvictStaleForUser(UserId user, Timestamp now) {
  tables_[static_cast<size_t>(user)].EraseIf(
      [&](uint32_t tweet, double score) {
        return score != kConsumed && !IsFresh(tweet, now);
      });
}

int64_t CandidateStore::TotalCandidates() const {
  int64_t total = 0;
  for (size_t u = 0; u < tables_.size(); ++u) {
    ForEachCandidate(static_cast<UserId>(u), [&](TweetId, double) {
      ++total;
      return true;
    });
  }
  return total;
}

void KeepTopK(std::vector<ScoredTweet>* tweets, int32_t k) {
  const auto better = [](const ScoredTweet& a, const ScoredTweet& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.tweet < b.tweet;
  };
  if (static_cast<int64_t>(tweets->size()) > k) {
    std::partial_sort(tweets->begin(), tweets->begin() + k, tweets->end(),
                      better);
    tweets->resize(static_cast<size_t>(k));
  } else {
    std::sort(tweets->begin(), tweets->end(), better);
  }
}

}  // namespace simgraph
