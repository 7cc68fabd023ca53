#include "baselines/cf_recommender.h"

#include <algorithm>
#include <span>

#include "util/logging.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace simgraph {

CfRecommender::CfRecommender(CfOptions options) : options_(options) {}

Status CfRecommender::Train(const Dataset& dataset, int64_t train_end) {
  if (train_end < 0 || train_end > dataset.num_retweets()) {
    return Status::InvalidArgument("train_end out of range");
  }
  ProfileStore profiles(dataset, train_end);

  reverse_.assign(static_cast<size_t>(dataset.num_users()), {});
  SimilarityScratch scratch;
  std::vector<std::pair<UserId, double>> all_pairs;
  for (UserId u = 0; u < dataset.num_users(); ++u) {
    if (profiles.ProfileSize(u) == 0) continue;
    std::span<std::pair<UserId, double>> sims;
    if (options_.init_mode == CfInitMode::kAllPairs) {
      // Whole-matrix scan; zero-similarity pairs are dropped (they can
      // never enter a top-M neighbourhood).
      all_pairs.clear();
      for (UserId v = 0; v < dataset.num_users(); ++v) {
        if (v == u) continue;
        const double s = profiles.Similarity(u, v);
        if (s > 0.0) all_pairs.emplace_back(v, s);
      }
      sims = all_pairs;
    } else {
      sims = profiles.SimilaritiesOf(u, scratch);
    }
    const int64_t m = std::min<int64_t>(options_.neighborhood_size,
                                        static_cast<int64_t>(sims.size()));
    std::partial_sort(sims.begin(), sims.begin() + m, sims.end(),
                      [](const auto& a, const auto& b) {
                        if (a.second != b.second) return a.second > b.second;
                        return a.first < b.first;
                      });
    for (int64_t i = 0; i < m; ++i) {
      reverse_[static_cast<size_t>(sims[static_cast<size_t>(i)].first)]
          .push_back(Influence{u, sims[static_cast<size_t>(i)].second});
    }
  }

  std::vector<Timestamp> tweet_times;
  tweet_times.reserve(dataset.tweets.size());
  tweet_author_.clear();
  tweet_author_.reserve(dataset.tweets.size());
  for (const Tweet& t : dataset.tweets) {
    tweet_times.push_back(t.time);
    tweet_author_.push_back(t.author);
  }
  candidates_ = std::make_unique<CandidateStore>(
      dataset.num_users(), std::move(tweet_times), options_.freshness_window);
  for (int64_t i = 0; i < train_end; ++i) {
    const RetweetEvent& e = dataset.retweets[static_cast<size_t>(i)];
    candidates_->MarkConsumed(e.user, e.tweet);
  }
  observed_ = 0;
  return Status::Ok();
}

void CfRecommender::Observe(const RetweetEvent& event) {
  SIMGRAPH_CHECK(candidates_ != nullptr) << "Train must be called first";
  candidates_->MarkConsumed(event.user, event.tweet);
  candidates_->MarkConsumed(tweet_author_[static_cast<size_t>(event.tweet)],
                            event.tweet);
  for (const Influence& inf : reverse_[static_cast<size_t>(event.user)]) {
    candidates_->Accumulate(inf.target, event.tweet, inf.sim);
  }
  if (++observed_ % 50000 == 0) candidates_->EvictStale(event.time);
}

std::vector<ScoredTweet> CfRecommender::Recommend(UserId user, Timestamp now,
                                                  int32_t k) {
  SIMGRAPH_CHECK(candidates_ != nullptr) << "Train must be called first";
  SIMGRAPH_TRACE_SPAN("CfRecommender::Recommend", "recommend");
  SIMGRAPH_SCOPED_LATENCY("recommend.cf.seconds");
  return candidates_->TopK(user, now, k);
}

int64_t CfRecommender::num_influence_links() const {
  int64_t total = 0;
  for (const auto& v : reverse_) total += static_cast<int64_t>(v.size());
  return total;
}

}  // namespace simgraph
