#ifndef SIMGRAPH_SERVE_SHARD_ROUTER_H_
#define SIMGRAPH_SERVE_SHARD_ROUTER_H_

#include <cstdint>

#include "dataset/types.h"

namespace simgraph {
namespace serve {

/// Hash-based request router of the sharded serving path: maps every
/// user id to its home shard with a stable mixing hash, so the
/// assignment is uniform even when user ids are dense and sequential
/// (plain `user % shards` would put consecutive users on consecutive
/// shards, which correlates with community structure in the generator).
///
/// Recommend requests go to exactly ShardOf(user). Delta-shipping
/// writes are partitioned by the same function: the DeltaBuilder splits
/// every finished delta by the owning shard of each op's user
/// (SplitDeltaByShard), so a shard replays and stores only the users it
/// serves. See docs/ingest.md for the pipeline and docs/serving.md for
/// the consistency discussion.
class ShardRouter {
 public:
  /// `num_shards` below 1 is clamped to 1.
  explicit ShardRouter(int32_t num_shards);

  int32_t num_shards() const { return num_shards_; }

  /// Home shard of `user` (stable across processes and runs).
  int32_t ShardOf(UserId user) const;

 private:
  int32_t num_shards_;
};

}  // namespace serve
}  // namespace simgraph

#endif  // SIMGRAPH_SERVE_SHARD_ROUTER_H_
