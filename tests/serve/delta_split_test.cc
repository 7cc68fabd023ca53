#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/simgraph_delta.h"
#include "dataset/config.h"
#include "dataset/generator.h"
#include "eval/protocol.h"
#include "serve/delta_builder.h"
#include "serve/shard_router.h"
#include "serve/simgraph_serving_recommender.h"

namespace simgraph {
namespace serve {
namespace {

using Consume = SimGraphDelta::Consume;
using Deposit = SimGraphDelta::Deposit;

bool SameConsume(const Consume& a, const Consume& b) {
  return a.user == b.user && a.tweet == b.tweet;
}

bool SameDeposit(const Deposit& a, const Deposit& b) {
  return a.user == b.user && a.tweet == b.tweet && a.score == b.score;
}

// One user's ops in the order a delta lists them.
struct UserOps {
  std::vector<Consume> consumed;
  std::vector<Deposit> deposits;
};

void CollectOps(const SimGraphDelta& delta, std::map<UserId, UserOps>* out) {
  for (const Consume& op : delta.consumed) {
    (*out)[op.user].consumed.push_back(op);
  }
  for (const Deposit& op : delta.deposits) {
    (*out)[op.user].deposits.push_back(op);
  }
}

void ExpectSameHeader(const SimGraphDelta& part, const SimGraphDelta& full) {
  EXPECT_EQ(part.seq_begin, full.seq_begin);
  EXPECT_EQ(part.seq_end, full.seq_end);
  EXPECT_EQ(part.graph_edges, full.graph_edges);
  EXPECT_EQ(part.snapshot_epoch, full.snapshot_epoch);
  EXPECT_EQ(part.flags, full.flags);
  EXPECT_EQ(part.evict_before, full.evict_before);
}

class DeltaSplitTest : public ::testing::Test {
 protected:
  // Records one delta over the first test events of a generated stream,
  // finalised the way the builder finalises it, then interleaves
  // hand-made consumed marks and deposits of one user among the
  // recorded ops so per-user order is observable.
  void SetUp() override {
    DatasetConfig config = TinyConfig();
    config.seed = 60810;
    const Dataset dataset = GenerateDataset(config);
    const EvalProtocol protocol = MakeProtocol(dataset, ProtocolOptions{});
    const int64_t num_test = dataset.num_retweets() - protocol.train_end;
    ASSERT_GT(num_test, 0);
    const int64_t events = std::min<int64_t>(num_test, 40);

    SimGraphServingRecommender source;
    ASSERT_TRUE(source.Train(dataset, protocol.train_end).ok());
    for (int64_t i = 0; i < events; ++i) {
      source.ObserveRecordingDelta(
          dataset.retweets[static_cast<size_t>(protocol.train_end + i)],
          &delta_);
    }
    std::sort(delta_.invalidated.begin(), delta_.invalidated.end());
    delta_.invalidated.erase(
        std::unique(delta_.invalidated.begin(), delta_.invalidated.end()),
        delta_.invalidated.end());
    ASSERT_GT(delta_.deposits.size(), 0u);

    delta_.seq_begin = 101;
    delta_.seq_end = 100 + static_cast<uint64_t>(events);
    delta_.graph_edges = 4242;
    delta_.snapshot_epoch = 7;
    delta_.flags = SimGraphDelta::kFlagSnapshotRefresh;
    delta_.evict_before = 123456;

    const UserId user = delta_.deposits.front().user;
    const auto at = [](auto& ops, size_t num, size_t den) {
      return ops.begin() + static_cast<std::ptrdiff_t>(ops.size() * num / den);
    };
    delta_.consumed.insert(at(delta_.consumed, 0, 1), Consume{user, 1});
    delta_.consumed.insert(at(delta_.consumed, 1, 2), Consume{user, 2});
    delta_.consumed.push_back(Consume{user, 3});
    delta_.deposits.insert(at(delta_.deposits, 0, 1), Deposit{user, 4, 0.5});
    delta_.deposits.insert(at(delta_.deposits, 1, 3), Deposit{user, 4, 0.25});
    delta_.deposits.insert(at(delta_.deposits, 2, 3), Deposit{user, 5, 0.75});
    delta_.deposits.push_back(Deposit{user, 4, 1.0});
  }

  SimGraphDelta delta_;
};

TEST_F(DeltaSplitTest, FourShardsEachGetTheirOwnUsersOpsInOrder) {
  const ShardRouter router(4);
  const std::vector<std::shared_ptr<const SimGraphDelta>> parts =
      SplitDeltaByShard(delta_, router);
  ASSERT_EQ(parts.size(), 4u);

  std::map<UserId, UserOps> split_ops;
  size_t consumed = 0;
  size_t deposits = 0;
  std::vector<UserId> invalidated;
  for (size_t s = 0; s < parts.size(); ++s) {
    ASSERT_NE(parts[s], nullptr);
    const SimGraphDelta& part = *parts[s];
    const auto shard = static_cast<int32_t>(s);
    ExpectSameHeader(part, delta_);
    for (const Consume& op : part.consumed) {
      EXPECT_EQ(router.ShardOf(op.user), shard) << "user " << op.user;
    }
    for (const Deposit& op : part.deposits) {
      EXPECT_EQ(router.ShardOf(op.user), shard) << "user " << op.user;
    }
    for (const UserId user : part.invalidated) {
      EXPECT_EQ(router.ShardOf(user), shard) << "user " << user;
    }
    EXPECT_TRUE(std::is_sorted(part.invalidated.begin(),
                               part.invalidated.end()));
    CollectOps(part, &split_ops);
    consumed += part.consumed.size();
    deposits += part.deposits.size();
    invalidated.insert(invalidated.end(), part.invalidated.begin(),
                       part.invalidated.end());
  }

  // Together the parts hold exactly the original ops, and every user's
  // consumed marks and deposits keep their recorded order.
  EXPECT_EQ(consumed, delta_.consumed.size());
  EXPECT_EQ(deposits, delta_.deposits.size());
  std::map<UserId, UserOps> full_ops;
  CollectOps(delta_, &full_ops);
  ASSERT_EQ(split_ops.size(), full_ops.size());
  for (const auto& [user, ops] : full_ops) {
    const UserOps& got = split_ops[user];
    EXPECT_TRUE(std::equal(ops.consumed.begin(), ops.consumed.end(),
                           got.consumed.begin(), got.consumed.end(),
                           SameConsume))
        << "user " << user;
    EXPECT_TRUE(std::equal(ops.deposits.begin(), ops.deposits.end(),
                           got.deposits.begin(), got.deposits.end(),
                           SameDeposit))
        << "user " << user;
  }
  std::sort(invalidated.begin(), invalidated.end());
  EXPECT_EQ(invalidated, delta_.invalidated);

  // The hand-made user's interleaved ops survive intact.
  const UserId user = delta_.deposits.back().user;
  const UserOps& mine = split_ops[user];
  ASSERT_GE(mine.consumed.size(), 3u);
  EXPECT_EQ(mine.consumed[mine.consumed.size() - 1].tweet, 3);
  ASSERT_GE(mine.deposits.size(), 4u);
  EXPECT_EQ(mine.deposits.front().score, 0.5);
  EXPECT_EQ(mine.deposits.back().score, 1.0);
}

TEST_F(DeltaSplitTest, SingleShardGetsTheFullDelta) {
  const std::vector<std::shared_ptr<const SimGraphDelta>> parts =
      SplitDeltaByShard(delta_, ShardRouter(1));
  ASSERT_EQ(parts.size(), 1u);
  const SimGraphDelta& part = *parts.front();
  ExpectSameHeader(part, delta_);
  EXPECT_TRUE(std::equal(part.consumed.begin(), part.consumed.end(),
                         delta_.consumed.begin(), delta_.consumed.end(),
                         SameConsume));
  EXPECT_TRUE(std::equal(part.deposits.begin(), part.deposits.end(),
                         delta_.deposits.begin(), delta_.deposits.end(),
                         SameDeposit));
  EXPECT_EQ(part.invalidated, delta_.invalidated);
  std::string full_bytes;
  std::string part_bytes;
  delta_.SerializeTo(&full_bytes);
  part.SerializeTo(&part_bytes);
  EXPECT_EQ(part_bytes, full_bytes);
}

}  // namespace
}  // namespace serve
}  // namespace simgraph
