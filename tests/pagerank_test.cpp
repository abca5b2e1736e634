// Tests for weighted PageRank: stochasticity, known closed-form cases,
// weighting behaviour, dangling nodes and convergence.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>

#include "datasets/datasets.hpp"
#include "graph/generators.hpp"
#include "graph/pagerank.hpp"

namespace accu::graph {
namespace {

double sum_of(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

TEST(PageRankTest, EmptyGraph) {
  EXPECT_TRUE(pagerank(Graph{}).empty());
}

TEST(PageRankTest, SumsToOne) {
  util::Rng rng(1);
  const Graph g = erdos_renyi(200, 0.05, rng).build();
  const auto pr = pagerank(g);
  EXPECT_NEAR(sum_of(pr), 1.0, 1e-9);
}

TEST(PageRankTest, SymmetricCycleIsUniform) {
  GraphBuilder b(6);
  for (NodeId v = 0; v < 6; ++v) b.add_edge(v, (v + 1) % 6);
  const auto pr = pagerank(b.build());
  for (const double r : pr) EXPECT_NEAR(r, 1.0 / 6.0, 1e-9);
}

TEST(PageRankTest, StarCenterDominates) {
  GraphBuilder b(9);
  for (NodeId v = 1; v < 9; ++v) b.add_edge(0, v);
  const auto pr = pagerank(b.build());
  for (NodeId v = 1; v < 9; ++v) {
    EXPECT_GT(pr[0], 3.0 * pr[v]);
    EXPECT_NEAR(pr[v], pr[1], 1e-12);  // leaves are symmetric
  }
}

TEST(PageRankTest, IsolatedNodesAreDangling) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  const auto pr = pagerank(b.build());
  EXPECT_NEAR(sum_of(pr), 1.0, 1e-9);
  EXPECT_GT(pr[0], pr[2]);
  EXPECT_NEAR(pr[2], pr[3], 1e-12);
  EXPECT_GT(pr[2], 0.0);
}

TEST(PageRankTest, WeightsShiftMass) {
  // Path 0-1-2 where edge (1,2) has tiny probability: node 0 should hold
  // more rank than node 2 under weighted PageRank, equal under unweighted.
  GraphBuilder b(3);
  b.add_edge(0, 1, 1.0);
  b.add_edge(1, 2, 0.05);
  const Graph g = b.build();
  const auto weighted = pagerank(g);
  EXPECT_GT(weighted[0], weighted[2]);
  PageRankOptions unweighted;
  unweighted.weighted = false;
  const auto flat = pagerank(g, unweighted);
  EXPECT_NEAR(flat[0], flat[2], 1e-9);
}

TEST(PageRankTest, UniformWeightsMatchUnweighted) {
  util::Rng rng(2);
  GraphBuilder b = erdos_renyi(100, 0.08, rng);
  for (std::size_t i = 0; i < b.num_edges(); ++i) b.set_prob(i, 0.37);
  const Graph g = b.build();
  const auto weighted = pagerank(g);
  PageRankOptions opt;
  opt.weighted = false;
  const auto flat = pagerank(g, opt);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_NEAR(weighted[v], flat[v], 1e-9);
  }
}

TEST(PageRankTest, ConvergesEarlyWithTightTolerance) {
  util::Rng rng(3);
  const Graph g = barabasi_albert(300, 3, rng).build();
  PageRankOptions few;
  few.max_iterations = 200;
  few.tolerance = 1e-14;
  const auto a = pagerank(g, few);
  PageRankOptions more = few;
  more.max_iterations = 400;
  const auto b = pagerank(g, more);
  for (NodeId v = 0; v < g.num_nodes(); ++v) EXPECT_NEAR(a[v], b[v], 1e-10);
}

TEST(PageRankTest, DampingZeroIsUniform) {
  util::Rng rng(4);
  const Graph g = barabasi_albert(50, 2, rng).build();
  PageRankOptions opt;
  opt.damping = 0.0;
  const auto pr = pagerank(g, opt);
  for (const double r : pr) EXPECT_NEAR(r, 1.0 / 50.0, 1e-12);
}

// The push-style power iteration graph::pagerank used before it became a
// pull over CSR rows, kept verbatim as the bit-level reference.
std::vector<double> push_pagerank(const Graph& g,
                                  const PageRankOptions& options) {
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

  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    double dangling = 0.0;
    for (NodeId v = 0; v < n; ++v) {
      if (out_mass[v] <= 0.0) dangling += rank[v];
    }
    const double base =
        (1.0 - options.damping) * uniform +
        options.damping * dangling * uniform;
    for (NodeId v = 0; v < n; ++v) next[v] = base;
    for (NodeId v = 0; v < n; ++v) {
      if (out_mass[v] <= 0.0) continue;
      const double share = options.damping * rank[v] / out_mass[v];
      for (const Neighbor& nb : g.neighbors(v)) {
        const double w = options.weighted ? g.edge_prob(nb.edge) : 1.0;
        next[nb.node] += share * w;
      }
    }
    double delta = 0.0;
    for (NodeId v = 0; v < n; ++v) delta += std::abs(next[v] - rank[v]);
    rank.swap(next);
    if (delta < options.tolerance) break;
  }
  return rank;
}

void expect_bit_identical(const Graph& g, const PageRankOptions& options) {
  const std::vector<double> pull = pagerank(g, options);
  const std::vector<double> push = push_pagerank(g, options);
  ASSERT_EQ(pull.size(), push.size());
  EXPECT_EQ(std::memcmp(pull.data(), push.data(),
                        pull.size() * sizeof(double)),
            0);
}

TEST(PageRankTest, PullMatchesCommittedPushBitForBit) {
  struct Network {
    const char* name;
    double scale;
  };
  for (const Network net : {Network{"facebook", 1.0}, Network{"twitter", 0.02},
                            Network{"dblp", 0.01}}) {
    SCOPED_TRACE(net.name);
    datasets::DatasetConfig config;
    config.scale = net.scale;
    util::Rng rng(1);
    const Graph g = datasets::make_dataset(net.name, config, rng).graph();
    PageRankOptions options;
    expect_bit_identical(g, options);
    options.weighted = false;
    expect_bit_identical(g, options);
    // Early convergence: the loose tolerance stops both after a few rounds.
    options.weighted = true;
    options.tolerance = 1e-4;
    expect_bit_identical(g, options);
  }
  // Dangling nodes: isolated ones, and one whose edges all have p = 0 (zero
  // out-mass under weighting, yet a nonempty row the pull walks).
  GraphBuilder b(8);
  b.add_edge(0, 1, 0.9);
  b.add_edge(1, 2, 0.3);
  b.add_edge(0, 2, 0.6);
  b.add_edge(2, 3, 0.0);
  b.add_edge(3, 4, 0.0);
  b.add_edge(5, 6, 1.0);
  const Graph dangling = b.build();
  PageRankOptions options;
  expect_bit_identical(dangling, options);
  options.weighted = false;
  expect_bit_identical(dangling, options);
  options.damping = 0.5;
  options.max_iterations = 7;
  expect_bit_identical(dangling, options);
}

}  // namespace
}  // namespace accu::graph
