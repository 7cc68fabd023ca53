#ifndef SIMGRAPH_GRAPH_GRAPH_IO_H_
#define SIMGRAPH_GRAPH_GRAPH_IO_H_

#include <string>

#include "graph/digraph.h"
#include "util/status.h"

namespace simgraph {

/// Writes `g` as a text edge list: first line "num_nodes num_edges
/// weighted", then one "src dst [weight]" line per edge.
Status WriteEdgeList(const Digraph& g, const std::string& path);

/// Reads a graph written by WriteEdgeList. A header whose node count does
/// not fit a NodeId, or whose edge count exceeds MaxTextRecords, is an
/// IoError.
StatusOr<Digraph> ReadEdgeList(const std::string& path);

/// Upper bound on how many records of `fields_per_record` whitespace-
/// separated fields the text file at `path` can hold: every field takes at
/// least one character and one separator, except that the last field of
/// the file may lack its separator. Text loaders check header counts
/// against it before allocating, so a forged count fails cleanly. Returns
/// -1, which every count fails, when the file has no size (not a regular
/// file).
int64_t MaxTextRecords(const std::string& path, int fields_per_record);

/// Writes `g` in a compact binary format (magic + version header, then
/// raw CSR arrays). Roughly 5-10x smaller and faster than the text form.
Status WriteBinaryGraph(const Digraph& g, const std::string& path);

/// Reads a graph written by WriteBinaryGraph. Rejects wrong magic or
/// version and truncated files.
StatusOr<Digraph> ReadBinaryGraph(const std::string& path);

/// Writes `g` in Graphviz DOT format for visual inspection (weights
/// become edge labels). Intended for small graphs/subgraphs; refuses
/// graphs with more than `max_edges` edges (default 20000) because the
/// output would be unusable anyway.
Status WriteDot(const Digraph& g, const std::string& path,
                int64_t max_edges = 20000);

}  // namespace simgraph

#endif  // SIMGRAPH_GRAPH_GRAPH_IO_H_
