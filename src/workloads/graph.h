#ifndef HYBRIDTIER_WORKLOADS_GRAPH_H_
#define HYBRIDTIER_WORKLOADS_GRAPH_H_

/**
 * @file
 * Synthetic graph generation (GAP benchmark suite substrate, §5.3).
 *
 * The paper evaluates GAP kernels on two generated graphs:
 *  - a Kronecker (R-MAT) graph with the Graph500 parameters, whose
 *    power-law degree distribution yields a small, stable set of hot hub
 *    vertices; and
 *  - a uniform random (Erdős–Rényi-style) graph, "the worst case in
 *    terms of locality", whose flat degree distribution produces large,
 *    diffuse hot sets.
 * Graphs are stored in CSR form, the layout whose page-access behaviour
 * the kernels trace.
 */

#include <cstdint>
#include <vector>

namespace hybridtier {

/** Compressed-sparse-row directed graph. */
struct Graph {
  uint64_t num_nodes = 0;
  std::vector<uint64_t> row_offsets;  //!< Size num_nodes + 1.
  std::vector<uint32_t> cols;         //!< Neighbor lists, concatenated.

  /** Total directed edges. */
  uint64_t num_edges() const { return cols.size(); }

  /** Out-degree of node `u`. */
  uint64_t Degree(uint64_t u) const {
    return row_offsets[u + 1] - row_offsets[u];
  }

  /** Checks CSR structural invariants; panics on violation. */
  void Validate() const;
};

/**
 * Generates a Kronecker/R-MAT graph with 2^scale nodes and
 * edge_factor * 2^scale directed edges, using the Graph500 partition
 * probabilities (A=0.57, B=0.19, C=0.19). Vertex labels are randomly
 * permuted, as the GAP generator does, so generator locality does not
 * leak into the page-access pattern.
 *
 * Each bit of an edge compares one raw draw x with
 * Rng::UnitThreshold(p) for p = A, A+B and A+B+C. Since NextDouble() is
 * (x >> 11) * 2^-53, NextDouble() < p holds exactly when
 * x < ceil(p * 2^53) << 11, so the graph for a seed is the one the
 * floating-point comparisons give, built without a branch on the draw.
 */
Graph GenerateKronecker(uint32_t scale, uint32_t edge_factor, uint64_t seed);

/**
 * Generates a uniform random graph with 2^scale nodes and
 * edge_factor * 2^scale directed edges; every endpoint is chosen
 * uniformly, so every vertex is equally likely to be any vertex's
 * neighbor.
 */
Graph GenerateUniformRandom(uint32_t scale, uint32_t edge_factor,
                            uint64_t seed);

}  // namespace hybridtier

#endif  // HYBRIDTIER_WORKLOADS_GRAPH_H_
