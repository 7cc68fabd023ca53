#include "graph/graph_io.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>

#include "graph/graph_builder.h"
#include "util/text_cursor.h"

namespace simgraph {
namespace {

constexpr char kBinaryMagic[8] = {'S', 'I', 'M', 'G', 'R', 'P', 'H', '1'};

template <typename T>
bool WritePod(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
  return static_cast<bool>(out);
}

template <typename T>
bool ReadPod(std::ifstream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}

template <typename T>
bool WriteVec(std::ofstream& out, const std::vector<T>& v) {
  const int64_t n = static_cast<int64_t>(v.size());
  if (!WritePod(out, n)) return false;
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(n * sizeof(T)));
  return static_cast<bool>(out);
}

template <typename T>
bool ReadVec(std::ifstream& in, std::vector<T>* v, int64_t max_elems) {
  int64_t n = 0;
  if (!ReadPod(in, &n) || n < 0 || n > max_elems) return false;
  v->resize(static_cast<size_t>(n));
  in.read(reinterpret_cast<char*>(v->data()),
          static_cast<std::streamsize>(n * sizeof(T)));
  return static_cast<bool>(in);
}

}  // namespace

Status WriteEdgeList(const Digraph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  out << g.num_nodes() << " " << g.num_edges() << " "
      << (g.has_weights() ? 1 : 0) << "\n";
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto nbrs = g.OutNeighbors(u);
    if (g.has_weights()) {
      const auto weights = g.OutWeights(u);
      for (size_t i = 0; i < nbrs.size(); ++i) {
        out << u << " " << nbrs[i] << " " << weights[i] << "\n";
      }
    } else {
      for (NodeId v : nbrs) out << u << " " << v << "\n";
    }
  }
  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

StatusOr<Digraph> ReadEdgeList(const std::string& path) {
  StatusOr<std::string> text = ReadTextFile(path);
  if (!text.ok()) return text.status();
  TextCursor in(*text);
  int64_t num_nodes = 0;
  int64_t num_edges = 0;
  int weighted = 0;
  if (!in.Next(&num_nodes) || !in.Next(&num_edges) || !in.Next(&weighted)) {
    return Status::IoError("malformed header in " + path);
  }
  if (num_nodes < 0 || num_edges < 0 || (weighted != 0 && weighted != 1)) {
    return Status::IoError("invalid header values in " + path);
  }
  if (num_nodes > std::numeric_limits<NodeId>::max()) {
    return Status::IoError("node count exceeds the NodeId range in " + path);
  }
  if (num_edges > in.MaxRecords(weighted == 1 ? 3 : 2)) {
    return Status::IoError("edge count exceeds what the file holds: " + path);
  }
  GraphBuilder builder(static_cast<NodeId>(num_nodes));
  builder.Reserve(num_edges);
  for (int64_t i = 0; i < num_edges; ++i) {
    int64_t u = 0;
    int64_t v = 0;
    double w = 1.0;
    if (!in.Next(&u) || !in.Next(&v)) {
      return Status::IoError("truncated edge list: " + path);
    }
    if (weighted == 1 && !in.Next(&w)) {
      return Status::IoError("truncated weights: " + path);
    }
    if (u < 0 || u >= num_nodes || v < 0 || v >= num_nodes || u == v) {
      return Status::IoError("invalid edge in " + path);
    }
    builder.AddEdge(static_cast<NodeId>(u), static_cast<NodeId>(v), w);
  }
  return builder.Build(weighted == 1);
}

Status WriteBinaryGraph(const Digraph& g, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  out.write(kBinaryMagic, sizeof(kBinaryMagic));
  const int64_t num_nodes = g.num_nodes();
  const int64_t num_edges = g.num_edges();
  const int8_t weighted = g.has_weights() ? 1 : 0;
  if (!WritePod(out, num_nodes) || !WritePod(out, num_edges) ||
      !WritePod(out, weighted)) {
    return Status::IoError("header write failed: " + path);
  }
  // Flattened CSR: degrees, then concatenated targets (and weights).
  std::vector<int64_t> degrees;
  std::vector<NodeId> targets;
  std::vector<double> weights;
  degrees.reserve(static_cast<size_t>(num_nodes));
  targets.reserve(static_cast<size_t>(num_edges));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    degrees.push_back(g.OutDegree(u));
    const auto nbrs = g.OutNeighbors(u);
    targets.insert(targets.end(), nbrs.begin(), nbrs.end());
    if (weighted == 1) {
      const auto w = g.OutWeights(u);
      weights.insert(weights.end(), w.begin(), w.end());
    }
  }
  if (!WriteVec(out, degrees) || !WriteVec(out, targets)) {
    return Status::IoError("payload write failed: " + path);
  }
  if (weighted == 1 && !WriteVec(out, weights)) {
    return Status::IoError("weights write failed: " + path);
  }
  out.flush();
  if (!out) return Status::IoError("flush failed: " + path);
  return Status::Ok();
}

StatusOr<Digraph> ReadBinaryGraph(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  char magic[sizeof(kBinaryMagic)];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kBinaryMagic, sizeof(magic)) != 0) {
    return Status::IoError("bad magic (not a SimGraph binary graph): " +
                           path);
  }
  int64_t num_nodes = 0;
  int64_t num_edges = 0;
  int8_t weighted = 0;
  if (!ReadPod(in, &num_nodes) || !ReadPod(in, &num_edges) ||
      !ReadPod(in, &weighted) || num_nodes < 0 || num_edges < 0 ||
      (weighted != 0 && weighted != 1)) {
    return Status::IoError("bad binary header: " + path);
  }
  // A hostile header must not drive vector sizes: every section length is
  // bounded by what the file could physically hold, so a forged count
  // fails cleanly instead of attempting a multi-exabyte allocation.
  std::error_code ec;
  const auto file_bytes =
      static_cast<int64_t>(std::filesystem::file_size(path, ec));
  if (ec) return Status::IoError("cannot stat: " + path);
  if (num_nodes > file_bytes || num_edges > file_bytes) {
    return Status::IoError("implausible binary header counts: " + path);
  }
  std::vector<int64_t> degrees;
  std::vector<NodeId> targets;
  std::vector<double> weights;
  if (!ReadVec(in, &degrees, num_nodes) || !ReadVec(in, &targets, num_edges)) {
    return Status::IoError("truncated binary graph: " + path);
  }
  if (weighted == 1 && !ReadVec(in, &weights, num_edges)) {
    return Status::IoError("truncated weights: " + path);
  }
  if (static_cast<int64_t>(degrees.size()) != num_nodes ||
      static_cast<int64_t>(targets.size()) != num_edges ||
      (weighted == 1 &&
       static_cast<int64_t>(weights.size()) != num_edges)) {
    return Status::IoError("inconsistent binary payload: " + path);
  }
  GraphBuilder builder(static_cast<NodeId>(num_nodes));
  size_t cursor = 0;
  for (int64_t u = 0; u < num_nodes; ++u) {
    const int64_t deg = degrees[static_cast<size_t>(u)];
    if (deg < 0 || cursor + static_cast<size_t>(deg) > targets.size()) {
      return Status::IoError("corrupt degree table: " + path);
    }
    for (int64_t i = 0; i < deg; ++i, ++cursor) {
      const NodeId v = targets[cursor];
      if (v < 0 || v >= num_nodes || v == static_cast<NodeId>(u)) {
        return Status::IoError("corrupt edge in binary graph: " + path);
      }
      builder.AddEdge(static_cast<NodeId>(u), v,
                      weighted == 1 ? weights[cursor] : 1.0);
    }
  }
  return builder.Build(weighted == 1);
}

Status WriteDot(const Digraph& g, const std::string& path,
                int64_t max_edges) {
  if (g.num_edges() > max_edges) {
    return Status::FailedPrecondition(
        "graph too large for DOT export (" + std::to_string(g.num_edges()) +
        " edges > " + std::to_string(max_edges) + ")");
  }
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  out << "digraph simgraph {\n";
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto nbrs = g.OutNeighbors(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      out << "  " << u << " -> " << nbrs[i];
      if (g.has_weights()) {
        out << " [label=\"" << g.OutWeights(u)[i] << "\"]";
      }
      out << ";\n";
    }
  }
  out << "}\n";
  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

}  // namespace simgraph
