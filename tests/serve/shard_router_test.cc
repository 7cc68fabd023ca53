#include "serve/shard_router.h"

#include <gtest/gtest.h>

#include <vector>

#include "dataset/types.h"

namespace simgraph {
namespace serve {
namespace {

TEST(ShardRouterTest, SingleShardOwnsEveryUser) {
  const ShardRouter router(1);
  EXPECT_EQ(router.num_shards(), 1);
  for (UserId user = 0; user < 1000; ++user) {
    EXPECT_EQ(router.ShardOf(user), 0);
  }
}

TEST(ShardRouterTest, NonPositiveShardCountClampsToOne) {
  EXPECT_EQ(ShardRouter(0).num_shards(), 1);
  EXPECT_EQ(ShardRouter(-3).num_shards(), 1);
}

TEST(ShardRouterTest, AssignmentIsDeterministicAndInRange) {
  const ShardRouter router(7);
  const ShardRouter twin(7);
  for (UserId user = 0; user < 5000; ++user) {
    const int32_t shard = router.ShardOf(user);
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, 7);
    EXPECT_EQ(twin.ShardOf(user), shard) << "user " << user;
  }
}

// The routing key is hashed, so sequential user-id ranges (which
// correlate with community structure in generated datasets) must spread
// across shards instead of landing in contiguous blocks.
TEST(ShardRouterTest, SequentialUsersBalanceAcrossShards) {
  constexpr int32_t kShards = 8;
  constexpr int32_t kUsers = 8000;
  const ShardRouter router(kShards);
  std::vector<int32_t> counts(kShards, 0);
  for (UserId user = 0; user < kUsers; ++user) {
    ++counts[static_cast<size_t>(router.ShardOf(user))];
  }
  const int32_t expected = kUsers / kShards;
  for (int32_t shard = 0; shard < kShards; ++shard) {
    // Within 30% of perfectly even — far tighter than the contiguous
    // block assignment an unhashed modulo would produce for any
    // clustered id range.
    EXPECT_GT(counts[static_cast<size_t>(shard)], expected * 7 / 10)
        << "shard " << shard;
    EXPECT_LT(counts[static_cast<size_t>(shard)], expected * 13 / 10)
        << "shard " << shard;
  }
}

}  // namespace
}  // namespace serve
}  // namespace simgraph
