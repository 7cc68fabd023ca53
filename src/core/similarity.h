#ifndef SIMGRAPH_CORE_SIMILARITY_H_
#define SIMGRAPH_CORE_SIMILARITY_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "dataset/dataset.h"
#include "dataset/types.h"
#include "util/stamped_set.h"

namespace simgraph {

/// Caller-owned dense scratch for ProfileStore::SimilaritiesOf: weight and
/// co-retweet count slots indexed by user id, a StampedSet marking which
/// slots belong to the current source (so moving to the next source is
/// O(1)), and the result list, which doubles as the list of touched users.
/// Once it has grown to num_users(), SimilaritiesOf allocates nothing.
/// Reuse one scratch per thread; it is not thread-safe.
class SimilarityScratch {
 private:
  friend class ProfileStore;
  StampedSet live_;
  std::vector<double> weight_;
  std::vector<int32_t> count_;
  std::vector<std::pair<UserId, double>> result_;
};

/// Retweet profiles and the popularity-adjusted Jaccard similarity of
/// Definition 3.1:
///
///   sim(u,v) = ( sum_{i in Lu ∩ Lv} 1/log(1+m(i)) ) / |Lu ∪ Lv|
///
/// where Lu is the set of tweets u retweeted and m(i) the popularity
/// (retweet count) of tweet i. Rare co-retweets weigh more than popular
/// ones, following Breese et al.
class ProfileStore {
 public:
  /// Builds profiles from the first `event_end` retweet events of
  /// `dataset` (pass dataset.num_retweets() for all). Popularities m(i)
  /// are counted over the same prefix.
  ProfileStore(const Dataset& dataset, int64_t event_end);

  int32_t num_users() const {
    return static_cast<int32_t>(profile_offsets_.size() - 1);
  }
  int64_t num_tweets() const {
    return static_cast<int64_t>(popularity_.size());
  }

  /// Tweets retweeted by `u`, ascending by id.
  std::span<const TweetId> Profile(UserId u) const {
    return {profile_tweets_.data() + profile_offsets_[static_cast<size_t>(u)],
            profile_tweets_.data() +
                profile_offsets_[static_cast<size_t>(u) + 1]};
  }

  int64_t ProfileSize(UserId u) const {
    return profile_offsets_[static_cast<size_t>(u) + 1] -
           profile_offsets_[static_cast<size_t>(u)];
  }

  /// Popularity m(i): number of retweets of tweet `i` within the window.
  int32_t Popularity(TweetId i) const {
    return popularity_[static_cast<size_t>(i)];
  }

  /// Users who retweeted tweet `i` within the window, ascending.
  std::span<const UserId> Retweeters(TweetId i) const {
    return {index_users_.data() + index_offsets_[static_cast<size_t>(i)],
            index_users_.data() + index_offsets_[static_cast<size_t>(i) + 1]};
  }

  /// The contribution weight 1/log(1+m(i)) of tweet `i`; 0 for tweets
  /// nobody retweeted (they cannot appear in any profile intersection).
  double TweetWeight(TweetId i) const;

  /// sim(u, v) by linear merge of the two profiles. O(|Lu| + |Lv|).
  double Similarity(UserId u, UserId v) const;

  /// Similarities of `u` against every user sharing at least one profile
  /// tweet with u, via the inverted index. Returns (user, sim) pairs with
  /// sim > 0 in first-touch order (not sorted), held in `scratch` and valid
  /// until its next use; callers may reorder them in place. Cost is
  /// proportional to the total index size of u's profile tweets. Each
  /// value is bit-identical to Similarity(u, v): both sum the shared
  /// tweets' weights in u's profile order and divide by the same union.
  std::span<std::pair<UserId, double>> SimilaritiesOf(
      UserId u, SimilarityScratch& scratch) const;

 private:
  // CSR profiles: user -> sorted tweet ids.
  std::vector<int64_t> profile_offsets_;
  std::vector<TweetId> profile_tweets_;
  // popularity per tweet over the window.
  std::vector<int32_t> popularity_;
  // CSR inverted index: tweet -> sorted user ids.
  std::vector<int64_t> index_offsets_;
  std::vector<UserId> index_users_;
};

}  // namespace simgraph

#endif  // SIMGRAPH_CORE_SIMILARITY_H_
