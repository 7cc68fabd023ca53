#include "core/candidate_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace simgraph {
namespace {

constexpr Timestamp kHour = kSecondsPerHour;

CandidateStore MakeStore() {
  // 5 tweets published at hours 0, 10, 20, 30, 40; 72h freshness.
  std::vector<Timestamp> times = {0, 10 * kHour, 20 * kHour, 30 * kHour,
                                  40 * kHour};
  return CandidateStore(/*num_users=*/3, std::move(times), 72 * kHour);
}

TEST(CandidateStoreTest, TopKOrdersByScore) {
  CandidateStore store = MakeStore();
  store.Deposit(0, 0, 0.1);
  store.Deposit(0, 1, 0.9);
  store.Deposit(0, 2, 0.5);
  const auto top = store.TopK(0, 50 * kHour, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].tweet, 1);
  EXPECT_EQ(top[1].tweet, 2);
}

TEST(CandidateStoreTest, TiesBrokenByTweetId) {
  CandidateStore store = MakeStore();
  store.Deposit(0, 2, 0.5);
  store.Deposit(0, 1, 0.5);
  const auto top = store.TopK(0, 50 * kHour, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].tweet, 1);
  EXPECT_EQ(top[1].tweet, 2);
}

TEST(CandidateStoreTest, DepositKeepsMax) {
  CandidateStore store = MakeStore();
  store.Deposit(0, 0, 0.5);
  store.Deposit(0, 0, 0.2);  // lower, ignored
  const auto top = store.TopK(0, 10 * kHour, 1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_DOUBLE_EQ(top[0].score, 0.5);
  store.Deposit(0, 0, 0.8);  // higher, kept
  EXPECT_DOUBLE_EQ(store.TopK(0, 10 * kHour, 1)[0].score, 0.8);
}

TEST(CandidateStoreTest, AccumulateSums) {
  CandidateStore store = MakeStore();
  store.Accumulate(0, 0, 0.25);
  store.Accumulate(0, 0, 0.5);
  EXPECT_DOUBLE_EQ(store.TopK(0, 10 * kHour, 1)[0].score, 0.75);
}

TEST(CandidateStoreTest, ConsumedNeverRecommended) {
  CandidateStore store = MakeStore();
  store.Deposit(0, 0, 0.9);
  store.MarkConsumed(0, 0);
  EXPECT_TRUE(store.TopK(0, 10 * kHour, 5).empty());
  // Deposits after consumption are also ignored.
  store.Deposit(0, 0, 0.95);
  store.Accumulate(0, 0, 1.0);
  EXPECT_TRUE(store.TopK(0, 10 * kHour, 5).empty());
}

TEST(CandidateStoreTest, ConsumptionIsPerUser) {
  CandidateStore store = MakeStore();
  store.Deposit(0, 0, 0.9);
  store.Deposit(1, 0, 0.9);
  store.MarkConsumed(0, 0);
  EXPECT_TRUE(store.TopK(0, 10 * kHour, 5).empty());
  EXPECT_EQ(store.TopK(1, 10 * kHour, 5).size(), 1u);
}

TEST(CandidateStoreTest, StaleTweetsAreFiltered) {
  CandidateStore store = MakeStore();
  store.Deposit(0, 0, 0.9);  // published at 0, fresh until 72h
  EXPECT_EQ(store.TopK(0, 72 * kHour, 5).size(), 1u);
  EXPECT_TRUE(store.TopK(0, 73 * kHour, 5).empty());
}

TEST(CandidateStoreTest, FutureTweetsAreNotRecommended) {
  CandidateStore store = MakeStore();
  store.Deposit(0, 4, 0.9);  // published at 40h
  EXPECT_TRUE(store.TopK(0, 39 * kHour, 5).empty());
  EXPECT_EQ(store.TopK(0, 41 * kHour, 5).size(), 1u);
}

TEST(CandidateStoreTest, ZeroScoresAreNotRecommended) {
  CandidateStore store = MakeStore();
  store.Accumulate(0, 0, 0.0);
  EXPECT_TRUE(store.TopK(0, 10 * kHour, 5).empty());
}

TEST(CandidateStoreTest, EvictStaleShrinksStore) {
  CandidateStore store = MakeStore();
  store.Deposit(0, 0, 0.9);
  store.Deposit(0, 4, 0.9);
  EXPECT_EQ(store.TotalCandidates(), 2);
  store.EvictStale(80 * kHour);  // tweet 0 (published 0h) is stale
  EXPECT_EQ(store.TotalCandidates(), 1);
  EXPECT_EQ(store.TopK(0, 80 * kHour, 5).size(), 1u);
}

TEST(CandidateStoreTest, KLargerThanCandidatesReturnsAll) {
  CandidateStore store = MakeStore();
  store.Deposit(0, 0, 0.3);
  store.Deposit(0, 1, 0.2);
  const auto top = store.TopK(0, 20 * kHour, 100);
  EXPECT_EQ(top.size(), 2u);
}

// ---------------------------------------------------------------------
// Differential test of the flat per-user tables against a reference
// model with the semantics of a node-based store: a hash map of scores
// plus a separate consumed set per user.

class ReferenceStore {
 public:
  ReferenceStore(int32_t num_users, std::vector<Timestamp> tweet_times,
                 Timestamp freshness_window)
      : tweet_times_(std::move(tweet_times)),
        freshness_window_(freshness_window),
        candidates_(static_cast<size_t>(num_users)),
        consumed_(static_cast<size_t>(num_users)) {}

  bool Deposit(UserId user, TweetId tweet, double score) {
    if (consumed_[static_cast<size_t>(user)].contains(tweet)) return false;
    double& slot = candidates_[static_cast<size_t>(user)][tweet];
    if (score <= slot) return false;
    slot = score;
    return true;
  }

  bool Accumulate(UserId user, TweetId tweet, double delta) {
    if (consumed_[static_cast<size_t>(user)].contains(tweet)) return false;
    candidates_[static_cast<size_t>(user)][tweet] += delta;
    return delta != 0.0;
  }

  void MarkConsumed(UserId user, TweetId tweet) {
    consumed_[static_cast<size_t>(user)].insert(tweet);
    candidates_[static_cast<size_t>(user)].erase(tweet);
  }

  bool IsConsumed(UserId user, TweetId tweet) const {
    return consumed_[static_cast<size_t>(user)].contains(tweet);
  }

  std::vector<ScoredTweet> TopK(UserId user, Timestamp now, int32_t k) const {
    std::vector<ScoredTweet> fresh;
    for (const auto& [tweet, score] : candidates_[static_cast<size_t>(user)]) {
      if (score > 0.0 && IsFresh(tweet, now) &&
          tweet_times_[static_cast<size_t>(tweet)] <= now) {
        fresh.push_back(ScoredTweet{tweet, score});
      }
    }
    std::sort(fresh.begin(), fresh.end(),
              [](const ScoredTweet& a, const ScoredTweet& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.tweet < b.tweet;
              });
    if (static_cast<int64_t>(fresh.size()) > k) {
      fresh.resize(static_cast<size_t>(k));
    }
    return fresh;
  }

  void EvictStaleForUser(UserId user, Timestamp now) {
    std::erase_if(candidates_[static_cast<size_t>(user)],
                  [&](const auto& entry) {
                    return !IsFresh(entry.first, now);
                  });
  }

  int64_t TotalCandidates() const {
    int64_t total = 0;
    for (const auto& per_user : candidates_) {
      total += static_cast<int64_t>(per_user.size());
    }
    return total;
  }

  std::map<TweetId, double> Candidates(UserId user) const {
    const auto& per_user = candidates_[static_cast<size_t>(user)];
    return std::map<TweetId, double>(per_user.begin(), per_user.end());
  }

 private:
  bool IsFresh(TweetId tweet, Timestamp now) const {
    return tweet_times_[static_cast<size_t>(tweet)] + freshness_window_ >= now;
  }

  std::vector<Timestamp> tweet_times_;
  Timestamp freshness_window_;
  std::vector<std::unordered_map<TweetId, double>> candidates_;
  std::vector<std::unordered_set<TweetId>> consumed_;
};

void ExpectSameState(const CandidateStore& store, const ReferenceStore& ref,
                     const std::vector<std::vector<TweetId>>& touched,
                     Timestamp now) {
  EXPECT_EQ(store.TotalCandidates(), ref.TotalCandidates());
  for (UserId user = 0; user < static_cast<UserId>(touched.size()); ++user) {
    for (const Timestamp at : {now - 12 * kHour, now}) {
      for (const int32_t k : {1, 7, 64, 1 << 20}) {
        const auto actual = store.TopK(user, at, k);
        const auto expected = ref.TopK(user, at, k);
        ASSERT_EQ(actual.size(), expected.size())
            << "user " << user << " k " << k;
        for (size_t i = 0; i < expected.size(); ++i) {
          EXPECT_EQ(actual[i].tweet, expected[i].tweet)
              << "user " << user << " rank " << i;
          EXPECT_EQ(actual[i].score, expected[i].score)
              << "user " << user << " rank " << i;
        }
      }
    }
    for (const TweetId tweet : touched[static_cast<size_t>(user)]) {
      EXPECT_EQ(store.IsConsumed(user, tweet), ref.IsConsumed(user, tweet))
          << "user " << user << " tweet " << tweet;
    }
    std::map<TweetId, double> visited;
    store.ForEachCandidate(user, [&](TweetId tweet, double score) {
      EXPECT_TRUE(visited.emplace(tweet, score).second) << "tweet " << tweet;
      return true;
    });
    EXPECT_EQ(visited, ref.Candidates(user)) << "user " << user;
  }
}

TEST(CandidateStoreTest, MatchesNodeBasedReferenceOverRandomOps) {
  constexpr int32_t kUsers = 4;
  constexpr int64_t kTweets = int64_t{1} << 20;
  constexpr Timestamp kWindow = 24 * kHour;
  std::mt19937_64 rng(1803);
  std::vector<Timestamp> times(static_cast<size_t>(kTweets));
  for (Timestamp& t : times) {
    t = static_cast<Timestamp>(rng() % static_cast<uint64_t>(100 * kHour));
  }
  CandidateStore store(kUsers, times, kWindow);
  ReferenceStore ref(kUsers, times, kWindow);

  // Each user draws tweets from its own pool:
  //   0: multiples of 1024 — keys that all share their low bits;
  //   1: the whole catalogue — growth through many doublings;
  //   2: 3000 ids — repeats, so max-merges and sums on live slots;
  //   3: 6 ids — a table of 8 slots kept nearly full, so probe chains
  //      and the evictions inside them wrap around the table end.
  const auto draw_tweet = [&](UserId user) -> TweetId {
    switch (user) {
      case 0:
        return static_cast<TweetId>(rng() % (kTweets / 1024)) * 1024;
      case 1:
        return static_cast<TweetId>(rng() % kTweets);
      case 2:
        return static_cast<TweetId>(rng() % 3000) * 7 + 11;
      default:
        return static_cast<TweetId>(rng() % 6) * 4099 + 5;
    }
  };
  // Scores on a 1/64 grid (ties for the top-k order), with zeros and
  // negatives.
  const auto draw_score = [&]() -> double {
    const uint64_t roll = rng() % 8;
    if (roll == 0) return 0.0;
    if (roll == 1) return -static_cast<double>(rng() % 16 + 1) / 16.0;
    return static_cast<double>(rng() % 64) / 64.0;
  };

  std::vector<std::vector<TweetId>> touched(kUsers);
  std::vector<std::unordered_set<TweetId>> seen(kUsers);
  int64_t evictions = 0;
  for (int phase = 0; phase < 10; ++phase) {
    const Timestamp now = kWindow + phase * 10 * kHour;
    for (int i = 0; i < 12000; ++i) {
      const auto user = static_cast<UserId>(rng() % kUsers);
      const uint64_t roll = rng() % 100;
      if (roll < (user == 3 ? 10u : 1u)) {
        store.EvictStaleForUser(user, now);
        ref.EvictStaleForUser(user, now);
        ++evictions;
        continue;
      }
      const TweetId tweet = draw_tweet(user);
      if (seen[static_cast<size_t>(user)].insert(tweet).second) {
        touched[static_cast<size_t>(user)].push_back(tweet);
      }
      // Every op kind also lands on consumed tweets: pools repeat.
      if (roll < 55) {
        const double score = draw_score();
        ASSERT_EQ(store.Deposit(user, tweet, score),
                  ref.Deposit(user, tweet, score))
            << "phase " << phase << " op " << i;
      } else if (roll < 80) {
        const double delta = draw_score();
        ASSERT_EQ(store.Accumulate(user, tweet, delta),
                  ref.Accumulate(user, tweet, delta))
            << "phase " << phase << " op " << i;
      } else {
        store.MarkConsumed(user, tweet);
        ref.MarkConsumed(user, tweet);
      }
    }
    ExpectSameState(store, ref, touched, now);
    if (HasFatalFailure() || HasNonfatalFailure()) return;
  }
  EXPECT_GT(evictions, 1000);
  EXPECT_GT(touched[1].size(), 10000u);
}

}  // namespace
}  // namespace simgraph
