#ifndef SIMGRAPH_CORE_SIMGRAPH_DELTA_H_
#define SIMGRAPH_CORE_SIMGRAPH_DELTA_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/simgraph.h"
#include "dataset/types.h"
#include "util/status.h"

namespace simgraph {

/// The compact, epoch-stamped unit of work the delta-shipping ingest
/// pipeline sends from the single DeltaBuilder to the shards' and
/// remote replicas' DeltaAppliers (docs/ingest.md). One delta covers
/// the contiguous event range [seq_begin, seq_end] and carries, in
/// application order, everything a replica needs to advance without
/// re-running the incremental SimGraph update itself (in-process shards
/// receive per-shard parts holding only the users they own):
///
///   * edge upserts/removes of the incremental similarity graph (the
///     builder records them as IncrementalSimGraph rescoring runs; SGDL
///     still carries them, but no applier replays them and per-shard
///     parts drop them);
///   * consumed marks (user interacted with tweet — never recommend it
///     to them again);
///   * candidate deposits (propagated scores that actually raised a
///     stored candidate — the builder ships only changed deposits);
///   * the invalidated-user list (exactly the users whose cached answers
///     the covered events may have changed);
///   * an optional eviction watermark and an optional snapshot-refresh
///     marker (epoch swap).
///
/// Ops may contain duplicates (an edge rescored by several events in one
/// batch appears once per rescore); replay is strictly in order, so the
/// last op wins and replicas stay bit-identical to the builder's state.
///
/// The binary layout is versioned (kMagic/kVersion, little-endian) so a
/// future multi-process deployment can ship the same bytes over RPC; see
/// docs/ingest.md for the field-by-field layout. `snapshot` is an
/// in-process shortcut and is never serialized.
struct SimGraphDelta {
  /// First four serialized bytes, "SGDL" read as a little-endian u32.
  static constexpr uint32_t kMagic = 0x4C444753u;
  /// Current layout version; Parse rejects anything else.
  static constexpr uint16_t kVersion = 1;
  /// Flag bit: the builder re-materialised its CSR snapshot while
  /// building this delta; appliers must swap epochs after replaying the
  /// candidate ops.
  static constexpr uint16_t kFlagSnapshotRefresh = 1u << 0;

  /// One rescored similarity edge src->dst now weighing `weight`.
  struct EdgeUpsert {
    UserId src = 0;
    UserId dst = 0;
    double weight = 0.0;
  };
  /// Edge src->dst fell below tau and was dropped.
  struct EdgeRemove {
    UserId src = 0;
    UserId dst = 0;
  };
  /// Candidate score of `tweet` for `user` raised to `score` (max-merge;
  /// only deposits that changed the stored score are shipped).
  struct Deposit {
    UserId user = 0;
    TweetId tweet = 0;
    double score = 0.0;
  };
  /// `user` interacted with `tweet`; remove it from their candidates and
  /// never recommend it to them again.
  struct Consume {
    UserId user = 0;
    TweetId tweet = 0;
  };

  /// Covered event range, inclusive, in global sequence numbers
  /// (1-based). seq_end - seq_begin + 1 events were folded in.
  uint64_t seq_begin = 0;
  uint64_t seq_end = 0;
  /// IncrementalSimGraph::version() after the covered events.
  uint64_t graph_version = 0;
  /// Snapshot epoch appliers must publish when kFlagSnapshotRefresh is
  /// set (unchanged otherwise).
  uint64_t snapshot_epoch = 0;
  /// OR of the kFlag* bits.
  uint16_t flags = 0;
  /// > 0: appliers drop candidates stale at this timestamp after
  /// replaying the ops (bounds replica memory; never changes answers).
  Timestamp evict_before = 0;

  std::vector<EdgeUpsert> edge_upserts;
  std::vector<EdgeRemove> edge_removes;
  std::vector<Deposit> deposits;
  std::vector<Consume> consumed;
  /// Sorted, deduplicated users whose cached recommendations the covered
  /// events may have changed (drives precise cache invalidation).
  std::vector<UserId> invalidated;

  /// In-process fast path: when kFlagSnapshotRefresh is set the builder
  /// attaches its freshly materialised CSR snapshot, so local appliers
  /// swap a shared pointer instead of re-materialising. NOT serialized —
  /// a remote replica keeps the snapshot it was seeded with and only
  /// advances its reported epoch (DeltaApplierRecommender::ApplyDelta);
  /// no applier reads the edge ops.
  std::shared_ptr<const SimGraph> snapshot;

  bool has_flag(uint16_t flag) const { return (flags & flag) != 0; }
  int64_t num_events() const {
    return seq_begin == 0 ? 0
                          : static_cast<int64_t>(seq_end - seq_begin) + 1;
  }
  /// Total graph-edge ops (upserts + removes).
  int64_t num_edge_ops() const {
    return static_cast<int64_t>(edge_upserts.size() + edge_removes.size());
  }

  /// Resets to an empty delta, keeping vector capacity (the builder
  /// reuses one scratch delta per batch).
  void Clear();

  /// Exact size in bytes SerializeTo appends.
  int64_t ByteSize() const;

  /// Appends the versioned little-endian wire encoding to `out`.
  void SerializeTo(std::string* out) const;

  /// Parses a buffer produced by SerializeTo. Rejects wrong magic,
  /// unknown version or flags, truncated sections, and trailing bytes.
  /// `out` is cleared first; `snapshot` is always null after parsing.
  static Status Parse(std::string_view bytes, SimGraphDelta* out);

  /// Checks every id an applier indexes by — deposit and consumed users
  /// and tweets, invalidated users — against a population of `num_users`
  /// and a catalogue of `num_tweets`. Parse vets only the framing; a
  /// replica runs this on each delta read off the wire, because an id
  /// out of range would index its per-user state out of bounds. Edge
  /// ops are not checked: no applier reads them.
  Status ValidateIds(int32_t num_users, int64_t num_tweets) const;
};

}  // namespace simgraph

#endif  // SIMGRAPH_CORE_SIMGRAPH_DELTA_H_
