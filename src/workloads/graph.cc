#include "workloads/graph.h"

#include <numeric>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"

namespace hybridtier {

void Graph::Validate() const {
  HT_ASSERT(row_offsets.size() == num_nodes + 1,
            "row_offsets size mismatch");
  HT_ASSERT(row_offsets.front() == 0, "row_offsets must start at 0");
  HT_ASSERT(row_offsets.back() == cols.size(),
            "row_offsets must end at num_edges");
  for (uint64_t u = 0; u < num_nodes; ++u) {
    HT_ASSERT(row_offsets[u] <= row_offsets[u + 1],
              "row_offsets must be non-decreasing at node ", u);
  }
  for (const uint32_t v : cols) {
    HT_ASSERT(v < num_nodes, "edge endpoint ", v, " out of range");
  }
}

namespace {

/**
 * Builds a CSR graph from edges packed as `src << 32 | dst`. One pass
 * maps both endpoints through `label` in place and counts out-degrees;
 * a second scatters the edges into `cols` in reverse, so each row keeps
 * its edges in list order without a cursor array.
 * @tparam Label callable mapping a generated vertex id to its label.
 */
template <typename Label>
Graph BuildCsr(uint64_t num_nodes, std::vector<uint64_t> edges,
               Label label) {
  Graph graph;
  graph.num_nodes = num_nodes;
  // An inclusive prefix sum over the degrees leaves row_offsets[u] at
  // the end of row u; the reverse scatter walks it back to the start.
  graph.row_offsets.assign(num_nodes + 1, 0);
  for (uint64_t& edge : edges) {
    const uint32_t src = label(static_cast<uint32_t>(edge >> 32));
    const uint32_t dst = label(static_cast<uint32_t>(edge));
    edge = static_cast<uint64_t>(src) << 32 | dst;
    ++graph.row_offsets[src];
  }
  std::partial_sum(graph.row_offsets.begin(), graph.row_offsets.end() - 1,
                   graph.row_offsets.begin());
  graph.row_offsets[num_nodes] = edges.size();
  graph.cols.resize(edges.size());
  for (auto it = edges.rbegin(); it != edges.rend(); ++it) {
    graph.cols[--graph.row_offsets[*it >> 32]] = static_cast<uint32_t>(*it);
  }
  return graph;
}

}  // namespace

Graph GenerateKronecker(uint32_t scale, uint32_t edge_factor,
                        uint64_t seed) {
  HT_ASSERT(scale >= 4 && scale <= 30, "kronecker scale out of range");
  const uint64_t num_nodes = 1ULL << scale;
  const uint64_t num_edges = static_cast<uint64_t>(edge_factor) * num_nodes;
  Rng rng(seed);

  // Graph500 R-MAT partition probabilities, as raw-draw thresholds:
  // NextU64() < UnitThreshold(p) is exactly NextDouble() < p.
  constexpr double kA = 0.57;
  constexpr double kB = 0.19;
  constexpr double kC = 0.19;
  const uint64_t t_a = Rng::UnitThreshold(kA);
  const uint64_t t_ab = Rng::UnitThreshold(kA + kB);
  const uint64_t t_abc = Rng::UnitThreshold(kA + kB + kC);

  // Random vertex relabeling, as in the GAP generator.
  std::vector<uint32_t> relabel(num_nodes);
  std::iota(relabel.begin(), relabel.end(), 0u);
  rng.Shuffle(relabel.data(), relabel.size());

  // One draw per bit picks a quadrant: below t_a neither bit (A), below
  // t_ab the dst bit (B), below t_abc the src bit (C), else both (D).
  // So the src bit is x >= t_ab and the dst bit is the parity of the
  // three comparisons, with no branch on the draw.
  std::vector<uint64_t> edges(num_edges);
  for (uint64_t& edge : edges) {
    uint64_t src = 0;
    uint64_t dst = 0;
    for (uint32_t bit = 0; bit < scale; ++bit) {
      const uint64_t x = rng.NextU64();
      const uint64_t ge_ab = x >= t_ab;
      src = src << 1 | ge_ab;
      dst = dst << 1 | ((x >= t_a) ^ ge_ab ^ (x >= t_abc));
    }
    edge = src << 32 | dst;
  }
  return BuildCsr(num_nodes, std::move(edges),
                  [&relabel](uint32_t v) { return relabel[v]; });
}

Graph GenerateUniformRandom(uint32_t scale, uint32_t edge_factor,
                            uint64_t seed) {
  HT_ASSERT(scale >= 4 && scale <= 30, "uniform scale out of range");
  const uint64_t num_nodes = 1ULL << scale;
  const uint64_t num_edges = static_cast<uint64_t>(edge_factor) * num_nodes;
  Rng rng(seed);

  // Each edge draws its dst before its src; the uniform graph goldens
  // pin that draw order.
  std::vector<uint64_t> edges(num_edges);
  for (uint64_t& edge : edges) {
    const uint64_t dst = rng.NextBounded(num_nodes);
    const uint64_t src = rng.NextBounded(num_nodes);
    edge = src << 32 | dst;
  }
  return BuildCsr(num_nodes, std::move(edges), [](uint32_t v) { return v; });
}

}  // namespace hybridtier
