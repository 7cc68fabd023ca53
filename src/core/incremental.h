#ifndef SIMGRAPH_CORE_INCREMENTAL_H_
#define SIMGRAPH_CORE_INCREMENTAL_H_

#include <cstdint>
#include <unordered_map>
#include <memory>
#include <unordered_set>
#include <vector>

#include "core/simgraph.h"
#include "dataset/dataset.h"

namespace simgraph {

struct SimGraphDelta;

/// Mutable retweet profiles: the streaming counterpart of ProfileStore.
/// Supports appending events one at a time while serving the same
/// similarity queries.
///
/// The tweet id space is open-ended: in a serving deployment new posts
/// arrive continuously, so Apply grows the per-tweet state whenever an
/// event references a tweet id >= the initial `num_tweets`, and the
/// per-tweet accessors answer 0 / empty for ids never seen.
class MutableProfileStore {
 public:
  /// Creates empty profiles for `num_users` users over `num_tweets` ids
  /// (a lower bound; the tweet space grows on demand).
  MutableProfileStore(int32_t num_users, int64_t num_tweets);

  /// Appends one retweet. Duplicate (user, tweet) pairs are ignored.
  /// Grows the tweet space when event.tweet is beyond the current bound.
  void Apply(const RetweetEvent& event);

  int64_t ProfileSize(UserId u) const {
    return static_cast<int64_t>(profiles_[static_cast<size_t>(u)].size());
  }
  /// Tweets retweeted by `u`, ascending.
  const std::vector<TweetId>& Profile(UserId u) const {
    return profiles_[static_cast<size_t>(u)];
  }
  int32_t Popularity(TweetId t) const {
    const size_t i = static_cast<size_t>(t);
    return i < popularity_.size() ? popularity_[i] : 0;
  }
  /// Users who retweeted `t`, in arrival order (empty for unseen ids).
  const std::vector<UserId>& Retweeters(TweetId t) const;

  /// Upper bound of the tweet id space seen so far.
  int64_t num_tweets() const {
    return static_cast<int64_t>(popularity_.size());
  }

  /// Definition 3.1 on the current state; matches ProfileStore built over
  /// the same event prefix.
  double Similarity(UserId u, UserId v) const;

 private:
  std::vector<std::vector<TweetId>> profiles_;   // sorted
  std::vector<std::vector<UserId>> retweeters_;  // arrival order
  std::vector<int32_t> popularity_;
};

/// Statistics of the incremental maintenance work.
struct IncrementalStats {
  int64_t events_applied = 0;
  int64_t pairs_rescored = 0;
  int64_t edges_inserted = 0;
  int64_t edges_updated = 0;
  int64_t edges_dropped = 0;
};

/// Event-level SimGraph maintenance — the incremental regime Figure 16
/// points towards ("follow the evolution of users by incrementally
/// computing a SimGraph on top of the previous iteration").
///
/// Initialise from a training prefix (identical to BuildSimGraph), then
/// Apply() each new retweet: when user u retweets tweet t, exactly the
/// pairs (u, v) for v in retweeters(t) gain a new co-retweet, so their
/// similarities are recomputed and their edges upserted (or dropped when
/// the refreshed score falls below tau), honouring the 2-hop constraint
/// of Definition 4.1 in both directions. Pairs untouched by new events
/// keep their (possibly stale) weights, exactly like the paper's
/// "SimGraph updated" strategy — but at per-event granularity and a tiny
/// fraction of a rebuild's cost.
class IncrementalSimGraph {
 public:
  /// `follow_graph` must outlive this object.
  IncrementalSimGraph(const Digraph& follow_graph,
                      const SimGraphOptions& options);

  /// Builds profiles and the similarity graph from the first `event_end`
  /// retweets of `dataset`. The seed BuildSimGraph runs on every core
  /// whatever `options.num_threads` says; its output does not depend on
  /// the thread count.
  Status Initialize(const Dataset& dataset, int64_t event_end);

  /// Applies one retweet event (must follow the initialisation prefix in
  /// time; duplicates are ignored).
  void Apply(const RetweetEvent& event);

  /// Apply(event); `delta` is ignored, since SGDL ships no edge ops.
  /// Kept only because the benchmark harness under perfbench/ still
  /// calls this signature.
  void Apply(const RetweetEvent& event, SimGraphDelta* delta) {
    (void)delta;
    Apply(event);
  }

  /// Materialises the current graph (CSR) for propagation / inspection.
  SimGraph Snapshot() const;

  int64_t num_edges() const { return num_edges_; }
  const IncrementalStats& stats() const { return stats_; }
  const MutableProfileStore& profiles() const { return *profiles_; }

 private:
  /// True when w is within `hops` out-hops of u in the follow graph.
  bool WithinHops(UserId u, UserId w) const;

  /// Recomputes sim(u, v) and upserts/drops the edge u->v (only; callers
  /// handle the reverse direction).
  void RescoreEdge(UserId u, UserId v);

  const Digraph* follow_graph_;
  SimGraphOptions options_;
  std::unique_ptr<MutableProfileStore> profiles_;
  /// adjacency_[u][v] = sim weight of edge u->v.
  std::vector<std::unordered_map<UserId, double>> adjacency_;
  /// reverse_[v] = sources of edges into v (kept in sync with adjacency_).
  std::vector<std::unordered_set<UserId>> reverse_;
  int64_t num_edges_ = 0;
  IncrementalStats stats_;
};

}  // namespace simgraph

#endif  // SIMGRAPH_CORE_INCREMENTAL_H_
