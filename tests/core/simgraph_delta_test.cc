#include "core/simgraph_delta.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>

#include "core/incremental.h"
#include "dataset/config.h"
#include "dataset/generator.h"

namespace simgraph {
namespace {

SimGraphDelta MakeSample() {
  SimGraphDelta delta;
  delta.seq_begin = 7;
  delta.seq_end = 9;
  delta.graph_version = 42;
  delta.snapshot_epoch = 3;
  delta.flags = SimGraphDelta::kFlagSnapshotRefresh;
  delta.evict_before = 123456789;
  delta.edge_upserts = {{1, 2, 0.25}, {2, 1, 0.125}};
  delta.edge_removes = {{3, 4}};
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
  EXPECT_EQ(parsed.graph_version, delta.graph_version);
  EXPECT_EQ(parsed.snapshot_epoch, delta.snapshot_epoch);
  EXPECT_EQ(parsed.flags, delta.flags);
  EXPECT_TRUE(parsed.has_flag(SimGraphDelta::kFlagSnapshotRefresh));
  EXPECT_EQ(parsed.evict_before, delta.evict_before);
  ASSERT_EQ(parsed.edge_upserts.size(), delta.edge_upserts.size());
  for (size_t i = 0; i < delta.edge_upserts.size(); ++i) {
    EXPECT_EQ(parsed.edge_upserts[i].src, delta.edge_upserts[i].src);
    EXPECT_EQ(parsed.edge_upserts[i].dst, delta.edge_upserts[i].dst);
    EXPECT_EQ(parsed.edge_upserts[i].weight, delta.edge_upserts[i].weight);
  }
  ASSERT_EQ(parsed.edge_removes.size(), delta.edge_removes.size());
  EXPECT_EQ(parsed.edge_removes[0].src, 3);
  EXPECT_EQ(parsed.edge_removes[0].dst, 4);
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
  // The in-process snapshot shortcut never crosses the wire.
  EXPECT_EQ(parsed.snapshot, nullptr);
  EXPECT_EQ(parsed.num_events(), 3u);
  EXPECT_EQ(parsed.num_edge_ops(), 3);
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
  EXPECT_TRUE(parsed.edge_upserts.empty());
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
  EXPECT_TRUE(delta.edge_upserts.empty());
  EXPECT_TRUE(delta.edge_removes.empty());
  EXPECT_TRUE(delta.deposits.empty());
  EXPECT_TRUE(delta.consumed.empty());
  EXPECT_TRUE(delta.invalidated.empty());
  EXPECT_EQ(delta.snapshot, nullptr);
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
  // Edge ops are never replayed, so they are not vetted.
  bad = MakeSample();
  bad.edge_upserts.push_back({100, 200, 0.5});
  EXPECT_TRUE(bad.ValidateIds(9, 103).ok());
}

// The recorded edge ops are a faithful oplog of the incremental update:
// replaying them in order against a replica of the pre-stream adjacency
// reproduces the post-stream graph exactly, event by event.
TEST(SimGraphDeltaTest, EdgeOpReplayReproducesIncrementalGraph) {
  DatasetConfig config = TinyConfig();
  config.seed = 60807;
  const Dataset dataset = GenerateDataset(config);
  const int64_t train_end = dataset.num_retweets() * 8 / 10;

  SimGraphOptions options;
  IncrementalSimGraph incremental(dataset.follow_graph, options);
  ASSERT_TRUE(incremental.Initialize(dataset, train_end).ok());

  // Replica of the adjacency, seeded from the training-time snapshot.
  std::map<std::pair<UserId, UserId>, double> replica;
  {
    const SimGraph snapshot = incremental.Snapshot();
    for (NodeId u = 0; u < snapshot.graph.num_nodes(); ++u) {
      const auto targets = snapshot.graph.OutNeighbors(u);
      const auto weights = snapshot.graph.OutWeights(u);
      for (size_t i = 0; i < targets.size(); ++i) {
        replica[{u, targets[i]}] = weights[i];
      }
    }
  }

  int64_t recorded_ops = 0;
  for (int64_t i = train_end; i < dataset.num_retweets(); ++i) {
    SimGraphDelta delta;
    incremental.Apply(dataset.retweets[static_cast<size_t>(i)], &delta);
    EXPECT_EQ(delta.graph_version, incremental.version());
    // Ordered replay: upserts and removes interleave in recording order
    // only within their own vectors; RescoreEdge never upserts and
    // removes the same pair inside one event, so section order is safe.
    for (const SimGraphDelta::EdgeUpsert& op : delta.edge_upserts) {
      replica[{op.src, op.dst}] = op.weight;
    }
    for (const SimGraphDelta::EdgeRemove& op : delta.edge_removes) {
      replica.erase({op.src, op.dst});
    }
    recorded_ops += delta.num_edge_ops();
  }
  ASSERT_GT(recorded_ops, 0);

  const SimGraph final_snapshot = incremental.Snapshot();
  int64_t final_edges = 0;
  for (NodeId u = 0; u < final_snapshot.graph.num_nodes(); ++u) {
    const auto targets = final_snapshot.graph.OutNeighbors(u);
    const auto weights = final_snapshot.graph.OutWeights(u);
    for (size_t i = 0; i < targets.size(); ++i) {
      const auto it = replica.find({u, targets[i]});
      ASSERT_NE(it, replica.end())
          << "edge " << u << "->" << targets[i] << " missing from replica";
      EXPECT_EQ(it->second, weights[i])
          << "edge " << u << "->" << targets[i];
      ++final_edges;
    }
  }
  EXPECT_EQ(replica.size(), static_cast<size_t>(final_edges));
  EXPECT_EQ(final_edges, incremental.num_edges());
}

}  // namespace
}  // namespace simgraph
