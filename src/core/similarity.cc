#include "core/similarity.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace simgraph {

ProfileStore::ProfileStore(const Dataset& dataset, int64_t event_end) {
  SIMGRAPH_CHECK_GE(event_end, 0);
  SIMGRAPH_CHECK_LE(event_end, dataset.num_retweets());
  const size_t num_users = static_cast<size_t>(dataset.num_users());
  const size_t num_tweets = static_cast<size_t>(dataset.num_tweets());

  popularity_.assign(num_tweets, 0);
  std::vector<int64_t> user_counts(num_users, 0);
  for (int64_t i = 0; i < event_end; ++i) {
    const RetweetEvent& e = dataset.retweets[static_cast<size_t>(i)];
    ++popularity_[static_cast<size_t>(e.tweet)];
    ++user_counts[static_cast<size_t>(e.user)];
  }

  // Profiles (user -> tweets).
  profile_offsets_.assign(num_users + 1, 0);
  for (size_t u = 0; u < num_users; ++u) {
    profile_offsets_[u + 1] = profile_offsets_[u] + user_counts[u];
  }
  profile_tweets_.resize(static_cast<size_t>(profile_offsets_.back()));
  {
    std::vector<int64_t> cursor(profile_offsets_.begin(),
                                profile_offsets_.end() - 1);
    for (int64_t i = 0; i < event_end; ++i) {
      const RetweetEvent& e = dataset.retweets[static_cast<size_t>(i)];
      profile_tweets_[static_cast<size_t>(
          cursor[static_cast<size_t>(e.user)]++)] = e.tweet;
    }
  }
  for (size_t u = 0; u < num_users; ++u) {
    std::sort(profile_tweets_.begin() + profile_offsets_[u],
              profile_tweets_.begin() + profile_offsets_[u + 1]);
  }

  // Inverted index (tweet -> users).
  index_offsets_.assign(num_tweets + 1, 0);
  for (size_t t = 0; t < num_tweets; ++t) {
    index_offsets_[t + 1] = index_offsets_[t] + popularity_[t];
  }
  index_users_.resize(static_cast<size_t>(index_offsets_.back()));
  {
    std::vector<int64_t> cursor(index_offsets_.begin(),
                                index_offsets_.end() - 1);
    for (int64_t i = 0; i < event_end; ++i) {
      const RetweetEvent& e = dataset.retweets[static_cast<size_t>(i)];
      index_users_[static_cast<size_t>(
          cursor[static_cast<size_t>(e.tweet)]++)] = e.user;
    }
  }
  for (size_t t = 0; t < num_tweets; ++t) {
    std::sort(index_users_.begin() + index_offsets_[t],
              index_users_.begin() + index_offsets_[t + 1]);
  }
}

double ProfileStore::TweetWeight(TweetId i) const {
  const int32_t m = popularity_[static_cast<size_t>(i)];
  if (m == 0) return 0.0;
  return 1.0 / std::log(1.0 + static_cast<double>(m));
}

double ProfileStore::Similarity(UserId u, UserId v) const {
  if (u == v) return 1.0;
  const auto lu = Profile(u);
  const auto lv = Profile(v);
  if (lu.empty() || lv.empty()) return 0.0;
  double inter_weight = 0.0;
  int64_t inter_count = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < lu.size() && j < lv.size()) {
    if (lu[i] < lv[j]) {
      ++i;
    } else if (lv[j] < lu[i]) {
      ++j;
    } else {
      inter_weight += TweetWeight(lu[i]);
      ++inter_count;
      ++i;
      ++j;
    }
  }
  if (inter_count == 0) return 0.0;
  const int64_t union_size =
      static_cast<int64_t>(lu.size() + lv.size()) - inter_count;
  return inter_weight / static_cast<double>(union_size);
}

std::span<std::pair<UserId, double>> ProfileStore::SimilaritiesOf(
    UserId u, SimilarityScratch& scratch) const {
  const size_t n = static_cast<size_t>(num_users());
  if (scratch.weight_.size() < n) {
    scratch.live_.Reserve(n);
    scratch.weight_.resize(n);
    scratch.count_.resize(n);
  }
  scratch.live_.Clear();
  auto& out = scratch.result_;
  out.clear();
  const auto lu = Profile(u);
  for (TweetId i : lu) {
    const double w = TweetWeight(i);
    for (UserId v : Retweeters(i)) {
      if (v == u) continue;
      const size_t slot = static_cast<size_t>(v);
      if (scratch.live_.Insert(slot)) {
        // First touch for this source: overwrite whatever an earlier
        // source left in the slot (0.0 + w == w, so the sum is unchanged).
        scratch.weight_[slot] = w;
        scratch.count_[slot] = 1;
        out.emplace_back(v, 0.0);
      } else {
        scratch.weight_[slot] += w;
        ++scratch.count_[slot];
      }
    }
  }
  const int64_t lu_size = static_cast<int64_t>(lu.size());
  size_t kept = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    const UserId v = out[i].first;
    const size_t slot = static_cast<size_t>(v);
    const double weight = scratch.weight_[slot];
    const int64_t union_size = lu_size + ProfileSize(v) - scratch.count_[slot];
    if (union_size > 0 && weight > 0.0) {
      out[kept++] = {v, weight / static_cast<double>(union_size)};
    }
  }
  out.resize(kept);
  return out;
}

}  // namespace simgraph
