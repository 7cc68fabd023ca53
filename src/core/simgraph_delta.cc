#include "core/simgraph_delta.h"

#include <algorithm>
#include <cstring>

#include "util/logging.h"

namespace simgraph {
namespace {

// SGDL v3 layout (docs/ingest.md), little-endian:
//
//   header     u32 magic, u16 version, u16 flags, u64 seq_begin,
//              u64 seq_end, i64 graph_edges, u64 snapshot_epoch,
//              i64 evict_before
//   consumed   u64 count, then count x (u32 user, u32 tweet)
//   deposits   u64 count, then groups covering exactly count deposits,
//              each u32 tweet, varint n, then n x (varint user gap,
//              f64 score)
//
// A group is a maximal run of deposits on one tweet with strictly
// increasing users — what one propagation emits. Its first gap is the
// absolute user id. Group boundaries are a function of the deposit
// sequence, so it round-trips in order with nothing merged or dropped.
//
// The repo only targets little-endian hosts, so fixed-width encoding is
// a memcpy; going through memcpy (not reinterpret_cast) keeps it
// alignment- and aliasing-clean.

template <typename T>
void AppendRaw(std::string* out, T value) {
  char buf[sizeof(T)];
  std::memcpy(buf, &value, sizeof(T));
  out->append(buf, sizeof(T));
}

/// Appends `value` as an LEB128 varint.
void AppendVarint(std::string* out, uint32_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

/// Bounds-checked reader over the serialized buffer.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  template <typename T>
  bool Read(T* value) {
    if (remaining() < sizeof(T)) return false;
    std::memcpy(value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  /// Reads an LEB128 varint. False when it is truncated, longer than
  /// its minimal form, or past u32.
  bool ReadVarint(uint32_t* value) {
    uint64_t result = 0;
    for (int shift = 0; shift < 35; shift += 7) {
      if (pos_ == bytes_.size()) return false;
      const auto byte = static_cast<uint8_t>(bytes_[pos_++]);
      result |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        // A minimal multi-byte varint never ends in a zero byte.
        if (byte == 0 && shift > 0) return false;
        if (result > UINT32_MAX) return false;
        *value = static_cast<uint32_t>(result);
        return true;
      }
    }
    return false;  // a sixth byte: past u32
  }

  /// Reads a section count and checks the remaining bytes can hold
  /// `count * entry_size` before any per-entry read runs — a corrupt
  /// count fails fast instead of looping.
  bool ReadCount(uint64_t entry_size, uint64_t* count) {
    if (!Read(count)) return false;
    return *count <= remaining() / entry_size;
  }

  size_t remaining() const { return bytes_.size() - pos_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

constexpr uint64_t kHeaderBytes = 4 + 2 + 2 +  // magic, version, flags
                                  8 * 4 +      // seqs, edges, epoch
                                  8;           // evict_before
constexpr uint64_t kConsumeBytes = 4 + 4;
// Smallest encoded deposit: a one-byte gap and the score.
constexpr uint64_t kMinDepositBytes = 1 + 8;

uint64_t VarintSize(uint32_t value) {
  uint64_t size = 1;
  for (; value >= 0x80; value >>= 7) ++size;
  return size;
}

// Ids as the wire carries them.
uint32_t WireUser(const SimGraphDelta::Deposit& op) {
  return static_cast<uint32_t>(op.user);
}
uint32_t WireTweet(const SimGraphDelta::Deposit& op) {
  return static_cast<uint32_t>(op.tweet);
}

/// Calls `visit(begin, end)` for each deposit group, in order.
template <typename Visit>
void ForEachGroup(const std::vector<SimGraphDelta::Deposit>& deposits,
                  Visit&& visit) {
  size_t begin = 0;
  while (begin < deposits.size()) {
    size_t end = begin + 1;
    while (end < deposits.size() &&
           WireTweet(deposits[end]) == WireTweet(deposits[begin]) &&
           WireUser(deposits[end]) > WireUser(deposits[end - 1])) {
      ++end;
    }
    visit(begin, end);
    begin = end;
  }
}

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
  uint64_t size = kHeaderBytes + 2 * 8 +  // two section counts
                  consumed.size() * kConsumeBytes;
  ForEachGroup(deposits, [&](size_t begin, size_t end) {
    size += 4 + VarintSize(static_cast<uint32_t>(end - begin)) +
            (end - begin) * 8;
    uint32_t prev = 0;
    for (size_t i = begin; i < end; ++i) {
      size += VarintSize(WireUser(deposits[i]) - prev);
      prev = WireUser(deposits[i]);
    }
  });
  return static_cast<int64_t>(size);
}

void SimGraphDelta::SerializeTo(std::string* out) const {
  const size_t start = out->size();
  const auto size = static_cast<size_t>(ByteSize());
  out->reserve(start + size);
  AppendRaw<uint32_t>(out, kMagic);
  AppendRaw<uint16_t>(out, kVersion);
  AppendRaw<uint16_t>(out, flags);
  AppendRaw<uint64_t>(out, seq_begin);
  AppendRaw<uint64_t>(out, seq_end);
  AppendRaw<int64_t>(out, graph_edges);
  AppendRaw<uint64_t>(out, snapshot_epoch);
  AppendRaw<int64_t>(out, evict_before);

  AppendRaw<uint64_t>(out, consumed.size());
  for (const Consume& op : consumed) {
    AppendRaw<uint32_t>(out, static_cast<uint32_t>(op.user));
    AppendRaw<uint32_t>(out, static_cast<uint32_t>(op.tweet));
  }
  AppendRaw<uint64_t>(out, deposits.size());
  ForEachGroup(deposits, [&](size_t begin, size_t end) {
    AppendRaw<uint32_t>(out, WireTweet(deposits[begin]));
    AppendVarint(out, static_cast<uint32_t>(end - begin));
    uint32_t prev = 0;
    for (size_t i = begin; i < end; ++i) {
      AppendVarint(out, WireUser(deposits[i]) - prev);
      AppendRaw<double>(out, deposits[i].score);
      prev = WireUser(deposits[i]);
    }
  });
  SIMGRAPH_CHECK_EQ(out->size(), start + size);
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

  if (!reader.ReadCount(kMinDepositBytes, &count)) {
    return Corrupt("bad deposits count");
  }
  out->deposits.resize(count);
  size_t filled = 0;
  while (filled < count) {
    uint32_t tweet = 0;
    uint32_t size = 0;
    if (!reader.Read(&tweet)) return Corrupt("truncated deposit group");
    if (!reader.ReadVarint(&size)) return Corrupt("bad deposit group size");
    if (size == 0) return Corrupt("empty deposit group");
    if (size > count - filled) return Corrupt("deposit group past count");
    uint64_t user = 0;
    for (uint32_t i = 0; i < size; ++i) {
      uint32_t gap = 0;
      Deposit& op = out->deposits[filled];
      if (!reader.ReadVarint(&gap)) return Corrupt("bad deposit user gap");
      if (!reader.Read(&op.score)) return Corrupt("truncated deposits");
      if (i > 0 && gap == 0) return Corrupt("zero deposit user gap");
      user += gap;
      if (user > UINT32_MAX) return Corrupt("deposit user past u32");
      if (i == 0 && filled > 0 &&
          WireTweet(out->deposits[filled - 1]) == tweet &&
          WireUser(out->deposits[filled - 1]) < user) {
        return Corrupt("deposit group extends the previous one");
      }
      op.user = static_cast<UserId>(static_cast<uint32_t>(user));
      op.tweet = static_cast<TweetId>(tweet);
      ++filled;
    }
  }
  if (!reader.AtEnd()) return Corrupt("trailing bytes");

  // Every user an op names, and no other, may have a changed answer:
  // the sorted unique list DeltaBuilder builds in process.
  std::vector<UserId>& users = out->invalidated;
  users.reserve(out->deposits.size() + out->consumed.size());
  for (const Consume& op : out->consumed) users.push_back(op.user);
  for (const Deposit& op : out->deposits) users.push_back(op.user);
  std::sort(users.begin(), users.end());
  users.erase(std::unique(users.begin(), users.end()), users.end());
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
