// Multi-queue stress for BoundedMpmcQueue in the shape the sharded
// serving layer uses it: several producers fanning items out across
// several queues (one consumer each, like per-shard appliers). The
// contract under fire: no item lost, none duplicated, and each
// producer's items come off every queue in the order that producer
// pushed them.
#include "util/mpmc_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

namespace simgraph {
namespace {

struct Item {
  int32_t producer = 0;
  int64_t index = 0;
};

constexpr int32_t kQueues = 4;
constexpr int32_t kProducers = 4;
constexpr int64_t kItemsPerProducer = 2000;

std::vector<std::unique_ptr<BoundedMpmcQueue<Item>>> MakeQueues() {
  std::vector<std::unique_ptr<BoundedMpmcQueue<Item>>> queues;
  for (int32_t q = 0; q < kQueues; ++q) {
    // Tiny capacity on purpose: producers must hit backpressure.
    queues.push_back(std::make_unique<BoundedMpmcQueue<Item>>(16));
  }
  return queues;
}

/// Asserts `popped` holds each (producer, index < limit_per_producer)
/// exactly once, with indices increasing per producer.
void ExpectExactlyOnceInOrder(const std::vector<Item>& popped,
                              int64_t limit_per_producer) {
  std::vector<int64_t> next(kProducers, 0);
  for (const Item& item : popped) {
    ASSERT_GE(item.producer, 0);
    ASSERT_LT(item.producer, kProducers);
    // FIFO per producer implies the indices arrive as 0, 1, 2, ... —
    // any loss, duplication, or reorder breaks the ladder.
    EXPECT_EQ(item.index, next[static_cast<size_t>(item.producer)])
        << "producer " << item.producer;
    ++next[static_cast<size_t>(item.producer)];
  }
  for (int32_t p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next[static_cast<size_t>(p)], limit_per_producer)
        << "producer " << p;
  }
}

// Broadcast fan-out: every producer pushes every item to every queue.
TEST(MpmcMultiQueueTest, FanOutDeliversExactlyOnceInOrderPerQueue) {
  auto queues = MakeQueues();

  std::vector<std::vector<Item>> popped(kQueues);
  std::vector<std::thread> consumers;
  for (int32_t q = 0; q < kQueues; ++q) {
    consumers.emplace_back([&, q] {
      while (auto item = queues[static_cast<size_t>(q)]->Pop()) {
        popped[static_cast<size_t>(q)].push_back(*item);
      }
    });
  }

  std::vector<std::thread> producers;
  for (int32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int64_t i = 0; i < kItemsPerProducer; ++i) {
        for (auto& queue : queues) {
          ASSERT_TRUE(queue->Push(Item{p, i}).has_value());
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();
  for (auto& queue : queues) queue->Close();
  for (std::thread& t : consumers) t.join();

  for (int32_t q = 0; q < kQueues; ++q) {
    ASSERT_EQ(popped[static_cast<size_t>(q)].size(),
              static_cast<size_t>(kProducers * kItemsPerProducer))
        << "queue " << q;
    ExpectExactlyOnceInOrder(popped[static_cast<size_t>(q)],
                             kItemsPerProducer);
    // Single consumer => pop count equals tickets issued.
    EXPECT_EQ(queues[static_cast<size_t>(q)]->pushed(),
              static_cast<uint64_t>(kProducers * kItemsPerProducer));
  }
}

// Partitioned routing (the ShardRouter recommend shape): each item goes
// to exactly one queue picked by a hash. The union across queues must
// be exactly-once, and each producer's items on any single queue must
// keep that producer's push order.
TEST(MpmcMultiQueueTest, RoutedPartitionLosesAndDuplicatesNothing) {
  auto queues = MakeQueues();

  std::vector<std::vector<Item>> popped(kQueues);
  std::vector<std::thread> consumers;
  for (int32_t q = 0; q < kQueues; ++q) {
    consumers.emplace_back([&, q] {
      while (auto item = queues[static_cast<size_t>(q)]->Pop()) {
        popped[static_cast<size_t>(q)].push_back(*item);
      }
    });
  }

  // splitmix64 finalizer, the same mixing the ShardRouter uses.
  const auto route = [](int32_t p, int64_t i) {
    uint64_t x = (static_cast<uint64_t>(p) << 32) ^ static_cast<uint64_t>(i);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return static_cast<int32_t>(x % kQueues);
  };

  std::vector<std::thread> producers;
  for (int32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int64_t i = 0; i < kItemsPerProducer; ++i) {
        ASSERT_TRUE(queues[static_cast<size_t>(route(p, i))]
                        ->Push(Item{p, i})
                        .has_value());
      }
    });
  }
  for (std::thread& t : producers) t.join();
  for (auto& queue : queues) queue->Close();
  for (std::thread& t : consumers) t.join();

  // Exactly-once across the union: mark every (producer, index) seen.
  std::vector<std::vector<bool>> seen(
      kProducers, std::vector<bool>(static_cast<size_t>(kItemsPerProducer),
                                    false));
  size_t total = 0;
  for (int32_t q = 0; q < kQueues; ++q) {
    std::vector<int64_t> last(kProducers, -1);
    for (const Item& item : popped[static_cast<size_t>(q)]) {
      ASSERT_GE(item.producer, 0);
      ASSERT_LT(item.producer, kProducers);
      ASSERT_GE(item.index, 0);
      ASSERT_LT(item.index, kItemsPerProducer);
      EXPECT_FALSE(
          seen[static_cast<size_t>(item.producer)]
              [static_cast<size_t>(item.index)])
          << "duplicate (" << item.producer << ", " << item.index << ")";
      seen[static_cast<size_t>(item.producer)]
          [static_cast<size_t>(item.index)] = true;
      // Per-producer FIFO within the queue this item was routed to.
      EXPECT_GT(item.index, last[static_cast<size_t>(item.producer)])
          << "queue " << q << " producer " << item.producer;
      last[static_cast<size_t>(item.producer)] = item.index;
      ++total;
    }
  }
  EXPECT_EQ(total, static_cast<size_t>(kProducers * kItemsPerProducer));
}

}  // namespace
}  // namespace simgraph
