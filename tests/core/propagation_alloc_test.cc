// Asserts the acceptance criterion of the epoch-stamped kernel: with a
// warm PropagationScratch and a reused PropagationResult, steady-state
// PropagateInto performs zero heap allocations. The hook is a global
// operator new replacement that counts while a flag is up; the flag is
// only raised around the measured calls, so gtest's own allocations do
// not pollute the count. This test must stay in its own binary — the
// replaced operator new is program-global.

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "core/propagation.h"
#include "graph/graph_builder.h"
#include "util/random.h"

namespace {

std::atomic<int64_t> g_allocations{0};
std::atomic<bool> g_counting{false};

void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// The nothrow forms are replaced too (std::stable_sort's temporary
// buffer uses them), so every new/delete pair goes through malloc/free
// and every allocation is counted.
void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace simgraph {
namespace {

SimGraph RandomSimGraph(uint64_t seed, NodeId n, int64_t edges) {
  Rng rng(seed);
  GraphBuilder b(n);
  for (int64_t i = 0; i < edges; ++i) {
    const NodeId u =
        static_cast<NodeId>(rng.NextBounded(static_cast<uint64_t>(n)));
    const NodeId v =
        static_cast<NodeId>(rng.NextBounded(static_cast<uint64_t>(n)));
    if (u != v) b.AddEdge(u, v, 0.05 + 0.9 * rng.NextDouble());
  }
  SimGraph sg;
  sg.graph = b.Build(/*weighted=*/true);
  return sg;
}

TEST(PropagationAllocation, SteadyStatePropagateIntoIsAllocationFree) {
  const SimGraph sg = RandomSimGraph(3, 400, 3200);
  Propagator prop(sg);

  Rng rng(4);
  std::vector<std::vector<UserId>> seed_sets;
  for (int i = 0; i < 10; ++i) {
    std::vector<UserId> seeds;
    for (uint64_t j = 0; j <= rng.NextBounded(5); ++j) {
      seeds.push_back(static_cast<UserId>(rng.NextBounded(400)));
    }
    seed_sets.push_back(std::move(seeds));
  }

  PropagationOptions opts;
  PropagationScratch scratch;
  PropagationResult result;
  // Warm-up: grows the scratch arrays, the reusable frontier/update
  // vectors, the result's score vector, and runs the one-time static
  // registration inside the metrics/trace macros.
  for (int pass = 0; pass < 3; ++pass) {
    for (const auto& seeds : seed_sets) {
      prop.PropagateInto(seeds, static_cast<int64_t>(seeds.size()), opts,
                         scratch, &result);
    }
  }

  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  int64_t total_updates = 0;
  for (int pass = 0; pass < 5; ++pass) {
    for (const auto& seeds : seed_sets) {
      prop.PropagateInto(seeds, static_cast<int64_t>(seeds.size()), opts,
                         scratch, &result);
      total_updates += result.updates;
    }
  }
  g_counting.store(false, std::memory_order_relaxed);

  EXPECT_GT(total_updates, 0) << "warm runs did no propagation work";
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), 0)
      << "steady-state PropagateInto allocated";
}

TEST(PropagationAllocation, ConvenienceOverloadStillAllocatesResultOnly) {
  // Propagate (returning a fresh PropagationResult) may allocate the
  // result vector (which grows by doubling, so O(log n) allocations) but
  // nothing else once the scratch is warm — a sanity bound showing the
  // only allocations left are the caller-visible result storage.
  const SimGraph sg = RandomSimGraph(5, 200, 1600);
  Propagator prop(sg);
  const std::vector<UserId> seeds = {1, 2, 3};
  PropagationOptions opts;
  PropagationScratch scratch;
  for (int i = 0; i < 3; ++i) prop.Propagate(seeds, 3, opts, scratch);

  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  const PropagationResult r = prop.Propagate(seeds, 3, opts, scratch);
  g_counting.store(false, std::memory_order_relaxed);

  EXPECT_FALSE(r.scores.empty());
  EXPECT_LE(g_allocations.load(std::memory_order_relaxed), 16);
}

}  // namespace
}  // namespace simgraph
