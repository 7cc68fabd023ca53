#include "core/simgraph_delta.h"

#include <cstring>

namespace simgraph {
namespace {

// Fixed-width little-endian primitives. The repo only targets
// little-endian hosts, so encoding is a memcpy; going through memcpy
// (not reinterpret_cast) keeps it alignment- and aliasing-clean.

template <typename T>
void AppendRaw(std::string* out, T value) {
  char buf[sizeof(T)];
  std::memcpy(buf, &value, sizeof(T));
  out->append(buf, sizeof(T));
}

/// Bounds-checked reader over the serialized buffer.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  template <typename T>
  bool Read(T* value) {
    if (bytes_.size() - pos_ < sizeof(T)) return false;
    std::memcpy(value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  /// Reads a section count and checks the remaining bytes can hold
  /// `count * entry_size` before any per-entry read runs — a corrupt
  /// count fails fast instead of looping.
  bool ReadCount(uint64_t entry_size, uint64_t* count) {
    if (!Read(count)) return false;
    const uint64_t remaining = bytes_.size() - pos_;
    return entry_size == 0 || *count <= remaining / entry_size;
  }

  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

constexpr uint64_t kHeaderBytes = 4 + 2 + 2 +  // magic, version, flags
                                  8 * 4 +      // seqs, edges, epoch
                                  8;           // evict_before
constexpr uint64_t kDepositBytes = 4 + 4 + 8;
constexpr uint64_t kConsumeBytes = 4 + 4;
constexpr uint64_t kInvalidatedBytes = 4;

Status Corrupt(const char* what) {
  return Status(StatusCode::kInvalidArgument,
                std::string("SimGraphDelta::Parse: ") + what);
}

}  // namespace

void SimGraphDelta::Clear() {
  seq_begin = 0;
  seq_end = 0;
  graph_edges = 0;
  snapshot_epoch = 0;
  flags = 0;
  evict_before = 0;
  deposits.clear();
  consumed.clear();
  invalidated.clear();
}

int64_t SimGraphDelta::ByteSize() const {
  return static_cast<int64_t>(
      kHeaderBytes + 3 * 8 +  // three section counts
      deposits.size() * kDepositBytes + consumed.size() * kConsumeBytes +
      invalidated.size() * kInvalidatedBytes);
}

void SimGraphDelta::SerializeTo(std::string* out) const {
  out->reserve(out->size() + static_cast<size_t>(ByteSize()));
  AppendRaw<uint32_t>(out, kMagic);
  AppendRaw<uint16_t>(out, kVersion);
  AppendRaw<uint16_t>(out, flags);
  AppendRaw<uint64_t>(out, seq_begin);
  AppendRaw<uint64_t>(out, seq_end);
  AppendRaw<int64_t>(out, graph_edges);
  AppendRaw<uint64_t>(out, snapshot_epoch);
  AppendRaw<int64_t>(out, evict_before);

  AppendRaw<uint64_t>(out, deposits.size());
  for (const Deposit& op : deposits) {
    AppendRaw<uint32_t>(out, static_cast<uint32_t>(op.user));
    AppendRaw<uint32_t>(out, static_cast<uint32_t>(op.tweet));
    AppendRaw<double>(out, op.score);
  }
  AppendRaw<uint64_t>(out, consumed.size());
  for (const Consume& op : consumed) {
    AppendRaw<uint32_t>(out, static_cast<uint32_t>(op.user));
    AppendRaw<uint32_t>(out, static_cast<uint32_t>(op.tweet));
  }
  AppendRaw<uint64_t>(out, invalidated.size());
  for (const UserId user : invalidated) {
    AppendRaw<uint32_t>(out, static_cast<uint32_t>(user));
  }
}

Status SimGraphDelta::Parse(std::string_view bytes, SimGraphDelta* out) {
  out->Clear();
  Reader reader(bytes);
  uint32_t magic = 0;
  uint16_t version = 0;
  if (!reader.Read(&magic) || !reader.Read(&version) ||
      !reader.Read(&out->flags)) {
    return Corrupt("truncated header");
  }
  if (magic != kMagic) return Corrupt("bad magic");
  if (version != kVersion) return Corrupt("unsupported version");
  if ((out->flags & ~kFlagSnapshotRefresh) != 0) {
    return Corrupt("unknown flag bits");
  }
  if (!reader.Read(&out->seq_begin) || !reader.Read(&out->seq_end) ||
      !reader.Read(&out->graph_edges) ||
      !reader.Read(&out->snapshot_epoch) || !reader.Read(&out->evict_before)) {
    return Corrupt("truncated header");
  }
  if (out->seq_end < out->seq_begin) return Corrupt("inverted seq range");

  uint64_t count = 0;
  if (!reader.ReadCount(kDepositBytes, &count)) {
    return Corrupt("bad deposits count");
  }
  out->deposits.resize(count);
  for (Deposit& op : out->deposits) {
    uint32_t user = 0;
    uint32_t tweet = 0;
    if (!reader.Read(&user) || !reader.Read(&tweet) ||
        !reader.Read(&op.score)) {
      return Corrupt("truncated deposits");
    }
    op.user = static_cast<UserId>(user);
    op.tweet = static_cast<TweetId>(tweet);
  }
  if (!reader.ReadCount(kConsumeBytes, &count)) {
    return Corrupt("bad consumed count");
  }
  out->consumed.resize(count);
  for (Consume& op : out->consumed) {
    uint32_t user = 0;
    uint32_t tweet = 0;
    if (!reader.Read(&user) || !reader.Read(&tweet)) {
      return Corrupt("truncated consumed");
    }
    op.user = static_cast<UserId>(user);
    op.tweet = static_cast<TweetId>(tweet);
  }
  if (!reader.ReadCount(kInvalidatedBytes, &count)) {
    return Corrupt("bad invalidated count");
  }
  out->invalidated.resize(count);
  for (UserId& user : out->invalidated) {
    uint32_t raw = 0;
    if (!reader.Read(&raw)) return Corrupt("truncated invalidated");
    user = static_cast<UserId>(raw);
  }
  if (!reader.AtEnd()) return Corrupt("trailing bytes");
  return Status::Ok();
}

Status SimGraphDelta::ValidateIds(int32_t num_users,
                                  int64_t num_tweets) const {
  const auto bad_user = [num_users](UserId user) {
    return user < 0 || user >= num_users;
  };
  const auto bad_tweet = [num_tweets](TweetId tweet) {
    return tweet < 0 || tweet >= num_tweets;
  };
  for (const Deposit& op : deposits) {
    if (bad_user(op.user) || bad_tweet(op.tweet)) {
      return Status::InvalidArgument("delta deposit id out of range");
    }
  }
  for (const Consume& op : consumed) {
    if (bad_user(op.user) || bad_tweet(op.tweet)) {
      return Status::InvalidArgument("delta consumed id out of range");
    }
  }
  for (const UserId user : invalidated) {
    if (bad_user(user)) {
      return Status::InvalidArgument("delta invalidated user out of range");
    }
  }
  return Status::Ok();
}

}  // namespace simgraph
