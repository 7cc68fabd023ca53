#include "serve/shard_router.h"

namespace simgraph {
namespace serve {
namespace {

/// splitmix64 finalizer: full-avalanche mix so dense sequential user
/// ids spread uniformly over shards.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

ShardRouter::ShardRouter(int32_t num_shards)
    : num_shards_(num_shards < 1 ? 1 : num_shards) {}

int32_t ShardRouter::ShardOf(UserId user) const {
  if (num_shards_ == 1) return 0;
  return static_cast<int32_t>(Mix64(static_cast<uint64_t>(user)) %
                              static_cast<uint64_t>(num_shards_));
}

}  // namespace serve
}  // namespace simgraph
