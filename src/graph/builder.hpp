// Edge-list → CSR construction.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "graph/csr.hpp"

namespace fw::graph {

struct Edge {
  VertexId src;
  VertexId dst;
  float weight = 1.0f;

  friend bool operator==(const Edge&, const Edge&) = default;
};

struct BuildOptions {
  bool deduplicate = false;       ///< drop parallel edges (keep first weight)
  bool drop_self_loops = false;   ///< drop (v, v)
  bool symmetrize = false;        ///< add reverse edge for every edge
  bool keep_weights = false;      ///< emit a weighted CsrGraph
};

class GraphBuilder {
 public:
  /// `num_vertices` fixes the ID space; edges referencing vertices outside
  /// it throw.
  explicit GraphBuilder(VertexId num_vertices) : num_vertices_(num_vertices) {}

  /// Pre-size the edge buffer for callers that know their edge count, so
  /// doubling growth leaves no freed buffers behind in the heap.
  void reserve(std::size_t num_edges) { edges_.reserve(num_edges); }

  void add_edge(VertexId src, VertexId dst, float weight = 1.0f);
  void add_edges(const std::vector<Edge>& edges);

  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }

  /// Consumes the accumulated edges and produces a CSR graph with neighbor
  /// lists sorted by destination ID.
  CsrGraph build(const BuildOptions& opts = {}) &&;

 private:
  VertexId num_vertices_;
  std::vector<Edge> edges_;
};

}  // namespace fw::graph
