#include "graph/pagerank.hpp"

#include <cmath>
#include <span>

namespace accu::graph {

std::vector<double> pagerank(const Graph& g, const PageRankOptions& options) {
  const NodeId n = g.num_nodes();
  if (n == 0) return {};
  ACCU_ASSERT(options.damping >= 0.0 && options.damping < 1.0);

  // Out-mass per node under the chosen weighting.
  std::vector<double> out_mass(n, 0.0);
  for (NodeId v = 0; v < n; ++v) {
    double mass = 0.0;
    for (const Neighbor& nb : g.neighbors(v)) {
      mass += options.weighted ? g.edge_prob(nb.edge) : 1.0;
    }
    out_mass[v] = mass;
  }

  const double uniform = 1.0 / static_cast<double>(n);
  std::vector<double> rank(n, uniform);
  std::vector<double> next(n, 0.0);
  std::vector<double> share(n, 0.0);
  const std::span<const std::size_t> offsets = g.raw_offsets();
  const std::span<const Neighbor> adjacency = g.raw_adjacency();
  const std::span<const double> probs = g.raw_probs();

  // Pull form of the push iteration next[u] += share[v]·w_uv over v in
  // ascending order: u's CSR row is strictly ascending, so summing it adds
  // the same terms in the same order, bit for bit.  A dangling node's
  // share is 0, whose +0.0 terms leave every (positive) sum unchanged.
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    double dangling = 0.0;
    for (NodeId v = 0; v < n; ++v) {
      if (out_mass[v] <= 0.0) {
        dangling += rank[v];
        share[v] = 0.0;
      } else {
        share[v] = options.damping * rank[v] / out_mass[v];
      }
    }
    const double base =
        (1.0 - options.damping) * uniform +
        options.damping * dangling * uniform;
    for (NodeId u = 0; u < n; ++u) {
      double sum = base;
      if (options.weighted) {
        for (std::size_t s = offsets[u]; s < offsets[u + 1]; ++s) {
          sum += share[adjacency[s].node] * probs[adjacency[s].edge];
        }
      } else {
        for (std::size_t s = offsets[u]; s < offsets[u + 1]; ++s) {
          sum += share[adjacency[s].node];  // share · 1.0, exactly
        }
      }
      next[u] = sum;
    }
    double delta = 0.0;
    for (NodeId v = 0; v < n; ++v) delta += std::abs(next[v] - rank[v]);
    rank.swap(next);
    if (delta < options.tolerance) break;
  }
  return rank;
}

}  // namespace accu::graph
