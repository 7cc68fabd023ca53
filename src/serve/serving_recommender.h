#ifndef SIMGRAPH_SERVE_SERVING_RECOMMENDER_H_
#define SIMGRAPH_SERVE_SERVING_RECOMMENDER_H_

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "core/recommender.h"
#include "dataset/types.h"

namespace simgraph {

struct SimGraphDelta;

namespace serve {

/// Which cached recommendation lists an applied event may have changed.
/// `all` is the conservative answer of recommenders that cannot track
/// affected users precisely; otherwise `users` lists exactly the users
/// whose Recommend output could differ from before the event.
struct AffectedUsers {
  bool all = false;
  std::vector<UserId> users;
};

/// A (possibly truncated) recommendation list. `complete` is false when a
/// deadline expired mid-computation and `tweets` holds only the
/// best-so-far prefix.
struct RecommendOutcome {
  std::vector<ScoredTweet> tweets;
  bool complete = true;
};

/// A Recommender extended with the hooks the serving layer needs:
///
///   * ObserveAffected reports precisely which users an event affected,
///     which drives the result cache's precise invalidation;
///   * RecommendUntil honours a wall-clock deadline, returning a
///     best-so-far truncated list instead of overrunning;
///   * concurrent_reads() declares whether Recommend*/Observe* may run
///     concurrently from multiple threads (implementations that lock
///     internally) — when false, the service serialises all calls.
///
/// Observe is final and forwards to ObserveAffected, so a
/// ServingRecommender still satisfies the plain Recommender contract and
/// can run under the offline eval harness unchanged.
class ServingRecommender : public Recommender {
 public:
  /// Applies one streamed event and reports which users' recommendation
  /// lists may have changed.
  virtual AffectedUsers ObserveAffected(const RetweetEvent& event) = 0;

  void Observe(const RetweetEvent& event) final { ObserveAffected(event); }

  /// Recommend with a wall-clock deadline. The default implementation
  /// ignores the deadline and always completes; override to degrade
  /// gracefully under load.
  virtual RecommendOutcome RecommendUntil(
      UserId user, Timestamp now, int32_t k,
      std::chrono::steady_clock::time_point deadline) {
    (void)deadline;
    return RecommendOutcome{Recommend(user, now, k), true};
  }

  /// True when Observe*/Recommend* are internally synchronised and may be
  /// called from multiple threads concurrently.
  virtual bool concurrent_reads() const { return false; }

  /// Called once by RecommendationService when the recommender serves a
  /// shard of a sharded deployment (the shard index is only known there:
  /// ShardedService assigns it when it wraps each shard's recommender in
  /// a service). Implementations may cache per-shard metric handles;
  /// default is a no-op.
  virtual void BindShard(int32_t shard) { (void)shard; }

  /// Applies one delta shipped by the DeltaBuilder pipeline
  /// (docs/ingest.md) and reports the users whose cached answers it may
  /// have changed. Only recommenders constructed as delta appliers
  /// support this; the default CHECK-fails — the serving layer never
  /// routes deltas to a recommender that expects raw events.
  virtual AffectedUsers ApplyDelta(const SimGraphDelta& delta);

  /// Reports the recommender's similarity-graph snapshot stats for the
  /// wire `stats` reply. Returns false when the recommender serves no
  /// graph (generic adapters); outputs are untouched then.
  virtual bool GraphStats(uint64_t* epoch, int64_t* edges) const {
    (void)epoch;
    (void)edges;
    return false;
  }
};

/// Wraps any plain Recommender as a ServingRecommender. Every event
/// conservatively affects all users (so caching still works, just with
/// coarse invalidation) and reads are not concurrency-safe, so the
/// service serialises access.
std::unique_ptr<ServingRecommender> WrapForServing(
    std::unique_ptr<Recommender> inner);

}  // namespace serve
}  // namespace simgraph

#endif  // SIMGRAPH_SERVE_SERVING_RECOMMENDER_H_
