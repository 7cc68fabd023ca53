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
/// application order, exactly what a replica reads to advance without
/// re-running the incremental SimGraph update itself (in-process shards
/// receive per-shard parts holding only the users they own):
///
///   * consumed marks (user interacted with tweet — never recommend it
///     to them again);
///   * candidate deposits (propagated scores that actually raised a
///     stored candidate — the builder ships only changed deposits);
///   * an optional eviction watermark and an optional snapshot-refresh
///     marker (epoch swap) with the refreshed graph's edge count.
///
/// The struct also carries the invalidated-user list (exactly the users
/// whose cached answers the covered events may have changed). It never
/// travels: it is every user a consumed mark or deposit names, so Parse
/// derives it.
///
/// Replay is strictly in order, so replicas stay bit-identical to the
/// builder's state. The similarity-graph edges themselves never ship:
/// appliers only replay the candidate ops the builder's propagation
/// produced.
///
/// The binary layout is versioned (kMagic/kVersion, little-endian) so
/// the same bytes ship to remote replicas over SGRP; see docs/ingest.md
/// for the field-by-field layout.
struct SimGraphDelta {
  /// First four serialized bytes, "SGDL" read as a little-endian u32.
  static constexpr uint32_t kMagic = 0x4C444753u;
  /// Current layout version; Parse rejects anything else.
  static constexpr uint16_t kVersion = 3;
  /// Flag bit: the builder re-materialised its CSR snapshot while
  /// building this delta; appliers must swap epochs after replaying the
  /// candidate ops.
  static constexpr uint16_t kFlagSnapshotRefresh = 1u << 0;

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
  /// Edge count of the refreshed snapshot when kFlagSnapshotRefresh is
  /// set (0 otherwise); appliers report it as their graph stats.
  int64_t graph_edges = 0;
  /// Snapshot epoch appliers must publish when kFlagSnapshotRefresh is
  /// set (unchanged otherwise).
  uint64_t snapshot_epoch = 0;
  /// OR of the kFlag* bits.
  uint16_t flags = 0;
  /// > 0: appliers drop candidates stale at this timestamp after
  /// replaying the ops (bounds replica memory; never changes answers).
  Timestamp evict_before = 0;

  /// Tweet ids travel as u32 on the wire (every candidate store keys
  /// tweets by uint32); ValidateIds bounds them on the replica.
  std::vector<Deposit> deposits;
  std::vector<Consume> consumed;
  /// Sorted, deduplicated users whose cached recommendations the covered
  /// events may have changed (drives precise cache invalidation): the
  /// users of `consumed` and `deposits`. Not serialized; Parse rebuilds
  /// it from the ops.
  std::vector<UserId> invalidated;

  /// Never set, read or serialized by this library. It is kept declared
  /// only because the benchmark harness under perfbench/ assigns it when
  /// it copies sample deltas; graph stats travel in `graph_edges`.
  std::shared_ptr<const SimGraph> snapshot;

  bool has_flag(uint16_t flag) const { return (flags & flag) != 0; }
  int64_t num_events() const {
    return seq_begin == 0 ? 0
                          : static_cast<int64_t>(seq_end - seq_begin) + 1;
  }
  /// Always 0: SGDL ships no similarity-graph edge ops. Kept for the
  /// benchmark harness, which reports it per event.
  int64_t num_edge_ops() const { return 0; }

  /// Resets to an empty delta, keeping vector capacity (the builder
  /// reuses one scratch delta per batch).
  void Clear();

  /// Exact size in bytes SerializeTo appends.
  int64_t ByteSize() const;

  /// Appends the versioned little-endian wire encoding to `out`.
  void SerializeTo(std::string* out) const;

  /// Parses a buffer produced by SerializeTo. Rejects wrong magic,
  /// unknown version or flags, truncated sections, and every encoding
  /// SerializeTo would not have written (empty or mergeable deposit
  /// groups, zero user gaps, non-minimal or oversized varints), so an
  /// accepted buffer reserializes to exactly its own bytes. `out` is
  /// cleared first. Tweet ids are widened from their u32 encoding, and
  /// `invalidated` is derived from the parsed ops.
  static Status Parse(std::string_view bytes, SimGraphDelta* out);

  /// Checks every id an applier indexes by — deposit and consumed users
  /// and tweets, invalidated users — against a population of `num_users`
  /// and a catalogue of `num_tweets`. Parse vets only the framing; a
  /// replica runs this on each delta read off the wire, because an id
  /// out of range would index its per-user state out of bounds.
  Status ValidateIds(int32_t num_users, int64_t num_tweets) const;
};

}  // namespace simgraph

#endif  // SIMGRAPH_CORE_SIMGRAPH_DELTA_H_
