#include "core/simgraph_delta.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

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
  // Four deposit groups: users 5, 6, 300 on tweet 100 (gaps 5, 1, 294;
  // the last needs a two-byte varint); user 2 on tweet 100 again, which
  // must start a new group because the user falls; then tweet 101, and
  // tweet 100 once more.
  delta.deposits = {{5, 100, 0.5},   {6, 100, 0.75},  {300, 100, 0.125},
                    {2, 100, 0.25},  {7, 101, 0.0625}, {9, 100, 1.5}};
  delta.consumed = {{5, 100}, {8, 102}};
  // What the builder records: every user an op names.
  delta.invalidated = {2, 5, 6, 7, 8, 9, 300};
  return delta;
}

void AppendU32(std::string* out, uint32_t value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}
void AppendU64(std::string* out, uint64_t value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

/// One deposit group's bytes: tweet, the raw varint `size`, then each
/// (raw varint gap, score) entry.
std::string Group(uint32_t tweet, const std::string& size,
                  const std::vector<std::pair<std::string, double>>& entries) {
  std::string out;
  AppendU32(&out, tweet);
  out += size;
  for (const auto& [gap, score] : entries) {
    out += gap;
    out.append(reinterpret_cast<const char*>(&score), sizeof(score));
  }
  return out;
}

/// A v3 delta with no consumed marks, `count` in the deposit count and
/// `groups` as the deposit section.
std::string Encode(uint64_t count, const std::string& groups) {
  SimGraphDelta empty;
  empty.seq_begin = 1;
  empty.seq_end = 1;
  std::string wire;
  empty.SerializeTo(&wire);
  wire.resize(wire.size() - 8);  // an empty delta ends in its deposit count
  AppendU64(&wire, count);
  return wire + groups;
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
  // Not on the wire: derived from the ops.
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
  // Header, two counts, one 8-byte mark, and a one-deposit group:
  // tweet, size varint, gap varint (one byte for user 1) and score.
  EXPECT_EQ(wire.size(), static_cast<size_t>(48 + 2 * 8 + 8 + 4 + 1 + 1 + 8));

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

  // A version-2 buffer: v2 carried flat 16-byte deposits and an
  // invalidated section, so its bytes must never be read as v3.
  bad = wire;
  bad[4] = 2;
  bad[5] = 0;
  EXPECT_FALSE(SimGraphDelta::Parse(bad, &parsed).ok());

  // A version-1 buffer: v1 carried two edge-op sections and 8-byte
  // tweet ids. An empty v1 delta is the 48-byte header followed by five
  // zero section counts.
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

// The hand-built encodings below differ from a canonical one in a single
// respect each; Parse accepts the canonical ones and rejects every other,
// so SerializeTo(Parse(b)) == b for every buffer it accepts.
TEST(SimGraphDeltaTest, ParseRejectsNonCanonicalDepositGroups) {
  using namespace std::string_literals;  // keeps embedded NUL bytes
  const auto accepts = [](const std::string& wire) {
    SimGraphDelta parsed;
    if (!SimGraphDelta::Parse(wire, &parsed).ok()) return false;
    std::string reserialized;
    parsed.SerializeTo(&reserialized);
    EXPECT_EQ(reserialized, wire);
    return true;
  };
  // Raw varints.
  const std::string zero = "\x00"s;
  const std::string one = "\x01"s;
  const std::string two = "\x02"s;
  const std::string three = "\x03"s;
  const std::string five = "\x05"s;
  const std::string u32_max = "\xff\xff\xff\xff\x0f"s;

  // Canonical: users 3 and 4 on tweet 9 in one group.
  const std::string users_3_4 =
      Encode(2, Group(9, two, {{three, 0.5}, {one, 0.25}}));
  EXPECT_TRUE(accepts(users_3_4));
  SimGraphDelta parsed;
  ASSERT_TRUE(SimGraphDelta::Parse(users_3_4, &parsed).ok());
  ASSERT_EQ(parsed.deposits.size(), 2u);
  EXPECT_EQ(parsed.deposits[1].user, 4);
  EXPECT_EQ(parsed.deposits[1].tweet, 9);
  EXPECT_EQ(parsed.invalidated, (std::vector<UserId>{3, 4}));
  // Canonical: the same tweet again, after a user that does not increase
  // (3 then 3) or under another tweet in between.
  EXPECT_TRUE(accepts(Encode(
      2, Group(9, one, {{three, 0.5}}) + Group(9, one, {{three, 0.5}}))));
  EXPECT_TRUE(accepts(Encode(3, Group(9, one, {{three, 0.5}}) +
                                    Group(8, one, {{"\x04"s, 0.5}}) +
                                    Group(9, one, {{five, 0.5}}))));
  // The largest u32 user, absolute in a group's first gap.
  EXPECT_TRUE(accepts(Encode(1, Group(9, one, {{u32_max, 0.5}}))));

  // An empty group.
  EXPECT_FALSE(accepts(
      Encode(1, Group(9, zero, {}) + Group(9, one, {{three, 0.5}}))));
  // A group that could have extended the previous one (user 3, then 5
  // on the same tweet).
  EXPECT_FALSE(accepts(Encode(
      2, Group(9, one, {{three, 0.5}}) + Group(9, one, {{five, 0.5}}))));
  // A zero gap inside a group (user 3 twice).
  EXPECT_FALSE(
      accepts(Encode(2, Group(9, two, {{three, 0.5}, {zero, 0.5}}))));
  // Non-minimal varints: a gap of 3 and a group size of 1 in two bytes.
  EXPECT_FALSE(accepts(Encode(1, Group(9, one, {{"\x83\x00"s, 0.5}}))));
  EXPECT_FALSE(accepts(Encode(1, Group(9, "\x81\x00"s, {{three, 0.5}}))));
  // Varints past u32: 2^32 in five bytes, a six-byte varint, and a
  // group size of 2^32 + 1.
  EXPECT_FALSE(
      accepts(Encode(1, Group(9, one, {{"\x80\x80\x80\x80\x10"s, 0.5}}))));
  EXPECT_FALSE(accepts(
      Encode(1, Group(9, one, {{"\x80\x80\x80\x80\x80\x01"s, 0.5}}))));
  EXPECT_FALSE(accepts(
      Encode(1, Group(9, "\x81\x80\x80\x80\x10"s, {{three, 0.5}}))));
  // Gaps that sum past u32.
  EXPECT_FALSE(
      accepts(Encode(2, Group(9, two, {{u32_max, 0.5}, {one, 0.5}}))));
  // Groups that disagree with the deposit count, either way.
  EXPECT_FALSE(
      accepts(Encode(1, Group(9, two, {{three, 0.5}, {one, 0.5}}))));
  EXPECT_FALSE(accepts(Encode(2, Group(9, one, {{three, 0.5}}))));
  EXPECT_FALSE(accepts(Encode(
      1, Group(9, one, {{three, 0.5}}) + Group(8, one, {{three, 0.5}}))));
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
  // MakeSample's largest user is 300 and largest tweet 102.
  EXPECT_TRUE(MakeSample().ValidateIds(301, 103).ok());
  EXPECT_FALSE(MakeSample().ValidateIds(300, 103).ok());
  EXPECT_FALSE(MakeSample().ValidateIds(301, 102).ok());

  SimGraphDelta bad = MakeSample();
  bad.deposits.push_back({301, 100, 0.5});
  EXPECT_EQ(bad.ValidateIds(301, 103).code(), StatusCode::kInvalidArgument);
  bad = MakeSample();
  bad.deposits.push_back({5, -1, 0.5});
  EXPECT_EQ(bad.ValidateIds(301, 103).code(), StatusCode::kInvalidArgument);
  bad = MakeSample();
  bad.consumed.push_back({-1, 100});
  EXPECT_EQ(bad.ValidateIds(301, 103).code(), StatusCode::kInvalidArgument);
  bad = MakeSample();
  bad.consumed.push_back({5, 103});
  EXPECT_EQ(bad.ValidateIds(301, 103).code(), StatusCode::kInvalidArgument);
  bad = MakeSample();
  bad.invalidated.push_back(301);
  EXPECT_EQ(bad.ValidateIds(301, 103).code(), StatusCode::kInvalidArgument);
  // A u32 tweet id off the wire can still exceed the catalogue.
  bad = MakeSample();
  bad.deposits.push_back({5, 0xFFFFFFFFll, 0.5});
  std::string wire;
  bad.SerializeTo(&wire);
  SimGraphDelta parsed;
  ASSERT_TRUE(SimGraphDelta::Parse(wire, &parsed).ok());
  EXPECT_EQ(parsed.ValidateIds(301, 103).code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace simgraph
