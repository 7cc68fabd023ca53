#include "core/simgraph_delta.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>

namespace simgraph {
namespace {

SimGraphDelta MakeSample() {
  SimGraphDelta delta;
  delta.seq_begin = 7;
  delta.seq_end = 9;
  delta.graph_edges = 4242;
  delta.snapshot_epoch = 3;
  delta.flags = SimGraphDelta::kFlagSnapshotRefresh;
  delta.evict_before = 123456789;
  delta.deposits = {{5, 100, 0.5}, {6, 101, 0.75}, {7, 100, 0.0625}};
  delta.consumed = {{5, 100}, {8, 102}};
  delta.invalidated = {1, 2, 5, 6, 7};
  return delta;
}

TEST(SimGraphDeltaTest, RoundTripPreservesEveryWireField) {
  const SimGraphDelta delta = MakeSample();
  std::string wire;
  delta.SerializeTo(&wire);
  EXPECT_EQ(wire.size(), static_cast<size_t>(delta.ByteSize()));

  SimGraphDelta parsed;
  ASSERT_TRUE(SimGraphDelta::Parse(wire, &parsed).ok());
  EXPECT_EQ(parsed.seq_begin, delta.seq_begin);
  EXPECT_EQ(parsed.seq_end, delta.seq_end);
  EXPECT_EQ(parsed.graph_edges, delta.graph_edges);
  EXPECT_EQ(parsed.snapshot_epoch, delta.snapshot_epoch);
  EXPECT_EQ(parsed.flags, delta.flags);
  EXPECT_TRUE(parsed.has_flag(SimGraphDelta::kFlagSnapshotRefresh));
  EXPECT_EQ(parsed.evict_before, delta.evict_before);
  ASSERT_EQ(parsed.deposits.size(), delta.deposits.size());
  for (size_t i = 0; i < delta.deposits.size(); ++i) {
    EXPECT_EQ(parsed.deposits[i].user, delta.deposits[i].user);
    EXPECT_EQ(parsed.deposits[i].tweet, delta.deposits[i].tweet);
    EXPECT_EQ(parsed.deposits[i].score, delta.deposits[i].score);
  }
  ASSERT_EQ(parsed.consumed.size(), delta.consumed.size());
  EXPECT_EQ(parsed.consumed[1].user, 8);
  EXPECT_EQ(parsed.consumed[1].tweet, 102);
  EXPECT_EQ(parsed.invalidated, delta.invalidated);
  EXPECT_EQ(parsed.num_events(), 3u);
  EXPECT_EQ(parsed.num_edge_ops(), 0);
}

TEST(SimGraphDeltaTest, TweetIdsTravelAsU32) {
  SimGraphDelta delta;
  delta.seq_begin = 1;
  delta.seq_end = 1;
  delta.deposits = {{1, 0xFFFFFFFFll, 0.5}};
  delta.consumed = {{2, 0xFFFFFFFEll}};
  std::string wire;
  delta.SerializeTo(&wire);
  // Header, three counts, one 16-byte deposit and one 8-byte mark.
  EXPECT_EQ(wire.size(), static_cast<size_t>(48 + 3 * 8 + 16 + 8));

  SimGraphDelta parsed;
  ASSERT_TRUE(SimGraphDelta::Parse(wire, &parsed).ok());
  // Widened, not sign-extended.
  EXPECT_EQ(parsed.deposits[0].tweet, 0xFFFFFFFFll);
  EXPECT_EQ(parsed.consumed[0].tweet, 0xFFFFFFFEll);
}

TEST(SimGraphDeltaTest, EmptyDeltaRoundTrips) {
  SimGraphDelta delta;
  delta.seq_begin = 1;
  delta.seq_end = 1;
  std::string wire;
  delta.SerializeTo(&wire);
  SimGraphDelta parsed;
  ASSERT_TRUE(SimGraphDelta::Parse(wire, &parsed).ok());
  EXPECT_EQ(parsed.num_events(), 1u);
  EXPECT_TRUE(parsed.deposits.empty());
  EXPECT_TRUE(parsed.invalidated.empty());
}

TEST(SimGraphDeltaTest, ClearResetsEverything) {
  SimGraphDelta delta = MakeSample();
  delta.Clear();
  EXPECT_EQ(delta.seq_begin, 0u);
  EXPECT_EQ(delta.seq_end, 0u);
  EXPECT_EQ(delta.num_events(), 0u);
  EXPECT_EQ(delta.flags, 0u);
  EXPECT_EQ(delta.evict_before, 0);
  EXPECT_EQ(delta.graph_edges, 0);
  EXPECT_EQ(delta.snapshot_epoch, 0u);
  EXPECT_TRUE(delta.deposits.empty());
  EXPECT_TRUE(delta.consumed.empty());
  EXPECT_TRUE(delta.invalidated.empty());
}

TEST(SimGraphDeltaTest, ParseRejectsCorruptInput) {
  std::string wire;
  MakeSample().SerializeTo(&wire);
  SimGraphDelta parsed;

  // Bad magic.
  std::string bad = wire;
  bad[0] = 'X';
  EXPECT_FALSE(SimGraphDelta::Parse(bad, &parsed).ok());

  // Unknown version.
  bad = wire;
  bad[4] = static_cast<char>(0x7f);
  EXPECT_FALSE(SimGraphDelta::Parse(bad, &parsed).ok());

  // A version-1 buffer: v1 carried two edge-op sections and 8-byte
  // tweet ids, so its bytes must never be read as v2. An empty v1 delta
  // is the 48-byte header followed by five zero section counts.
  bad = wire;
  bad[4] = 1;
  bad[5] = 0;
  EXPECT_FALSE(SimGraphDelta::Parse(bad, &parsed).ok());
  std::string v1_empty(48 + 5 * 8, '\0');
  const uint32_t magic = SimGraphDelta::kMagic;
  for (int i = 0; i < 4; ++i) {
    v1_empty[static_cast<size_t>(i)] =
        static_cast<char>((magic >> (8 * i)) & 0xff);
  }
  v1_empty[4] = 1;
  EXPECT_FALSE(SimGraphDelta::Parse(v1_empty, &parsed).ok());

  // Unknown flag bit.
  bad = wire;
  bad[7] = static_cast<char>(0x80);
  EXPECT_FALSE(SimGraphDelta::Parse(bad, &parsed).ok());

  // Truncation at every prefix length must fail cleanly, never crash.
  for (size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(
        SimGraphDelta::Parse(std::string_view(wire.data(), len), &parsed)
            .ok())
        << "prefix length " << len;
  }

  // Trailing garbage.
  bad = wire + "!";
  EXPECT_FALSE(SimGraphDelta::Parse(bad, &parsed).ok());

  // Inverted sequence range.
  SimGraphDelta inverted;
  inverted.seq_begin = 9;
  inverted.seq_end = 7;
  std::string inverted_wire;
  inverted.SerializeTo(&inverted_wire);
  EXPECT_FALSE(SimGraphDelta::Parse(inverted_wire, &parsed).ok());

  // A section count far beyond the remaining bytes (overflow guard).
  bad = wire;
  const size_t header = 4 + 2 + 2 + 8 * 4 + 8;  // first count follows
  for (int i = 0; i < 8; ++i) bad[header + static_cast<size_t>(i)] =
      static_cast<char>(0xff);
  EXPECT_FALSE(SimGraphDelta::Parse(bad, &parsed).ok());
}

// Hostile input: every single-byte corruption of a valid buffer either
// fails to parse or parses into a delta that serializes back to exactly
// the corrupted bytes — Parse never accepts bytes it cannot represent,
// and never crashes (the asan build runs this).
TEST(SimGraphDeltaTest, SingleByteMutationsParseExactlyOrFail) {
  std::string wire;
  MakeSample().SerializeTo(&wire);
  std::mt19937 rng(20231);
  std::uniform_int_distribution<int> delta_dist(1, 255);
  int64_t accepted = 0;
  int64_t rejected = 0;
  for (size_t offset = 0; offset < wire.size(); ++offset) {
    for (int trial = 0; trial < 8; ++trial) {
      std::string mutated = wire;
      // A nonzero XOR always changes the byte.
      mutated[offset] = static_cast<char>(
          static_cast<uint8_t>(mutated[offset]) ^ delta_dist(rng));
      SimGraphDelta parsed;
      if (!SimGraphDelta::Parse(mutated, &parsed).ok()) {
        ++rejected;
        continue;
      }
      ++accepted;
      std::string reserialized;
      parsed.SerializeTo(&reserialized);
      ASSERT_EQ(reserialized, mutated) << "offset " << offset;
      EXPECT_EQ(parsed.ByteSize(), static_cast<int64_t>(mutated.size()));
    }
  }
  // Both outcomes occur: payload bytes change values, framing bytes
  // break the parse.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(SimGraphDeltaTest, ValidateIdsRejectsEveryOutOfRangeId) {
  // MakeSample's largest user is 8 and largest tweet 102.
  EXPECT_TRUE(MakeSample().ValidateIds(9, 103).ok());
  EXPECT_FALSE(MakeSample().ValidateIds(8, 103).ok());
  EXPECT_FALSE(MakeSample().ValidateIds(9, 102).ok());

  SimGraphDelta bad = MakeSample();
  bad.deposits.push_back({9, 100, 0.5});
  EXPECT_EQ(bad.ValidateIds(9, 103).code(), StatusCode::kInvalidArgument);
  bad = MakeSample();
  bad.deposits.push_back({5, -1, 0.5});
  EXPECT_EQ(bad.ValidateIds(9, 103).code(), StatusCode::kInvalidArgument);
  bad = MakeSample();
  bad.consumed.push_back({-1, 100});
  EXPECT_EQ(bad.ValidateIds(9, 103).code(), StatusCode::kInvalidArgument);
  bad = MakeSample();
  bad.consumed.push_back({5, 103});
  EXPECT_EQ(bad.ValidateIds(9, 103).code(), StatusCode::kInvalidArgument);
  bad = MakeSample();
  bad.invalidated.push_back(9);
  EXPECT_EQ(bad.ValidateIds(9, 103).code(), StatusCode::kInvalidArgument);
  // A u32 tweet id off the wire can still exceed the catalogue.
  bad = MakeSample();
  bad.deposits.push_back({5, 0xFFFFFFFFll, 0.5});
  std::string wire;
  bad.SerializeTo(&wire);
  SimGraphDelta parsed;
  ASSERT_TRUE(SimGraphDelta::Parse(wire, &parsed).ok());
  EXPECT_EQ(parsed.ValidateIds(9, 103).code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace simgraph
