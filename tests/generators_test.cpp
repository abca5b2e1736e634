// Tests for the random-network generators: structural guarantees (node and
// edge counts, simplicity, connectivity where promised) and the statistical
// properties the dataset substitution relies on (mean degree, heavy tails,
// clustering), plus parameterized determinism sweeps.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"

namespace accu::graph {
namespace {

TEST(ErdosRenyiTest, EdgeCountNearExpectation) {
  util::Rng rng(1);
  const NodeId n = 400;
  const double p = 0.05;
  const Graph g = erdos_renyi(n, p, rng).build();
  EXPECT_EQ(g.num_nodes(), n);
  const double expected = p * n * (n - 1) / 2.0;  // 3990
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expected,
              4.0 * std::sqrt(expected));
}

TEST(ErdosRenyiTest, ExtremeProbabilities) {
  util::Rng rng(2);
  EXPECT_EQ(erdos_renyi(50, 0.0, rng).build().num_edges(), 0u);
  EXPECT_EQ(erdos_renyi(20, 1.0, rng).build().num_edges(), 190u);
}

TEST(ErdosRenyiTest, RejectsBadProbability) {
  util::Rng rng(3);
  EXPECT_THROW(erdos_renyi(10, 1.5, rng), InvalidArgument);
}

TEST(BarabasiAlbertTest, ExactEdgeCountAndConnectivity) {
  util::Rng rng(4);
  const Graph g = barabasi_albert(500, 3, rng).build();
  EXPECT_EQ(g.num_nodes(), 500u);
  // Star seed contributes 3 edges; each of the 496 later nodes adds 3.
  EXPECT_EQ(g.num_edges(), 3u + 496u * 3u);
  EXPECT_EQ(connected_components(g).count, 1u);
}

TEST(BarabasiAlbertTest, MinimumDegreeIsAttachment) {
  util::Rng rng(5);
  const Graph g = barabasi_albert(300, 4, rng).build();
  EXPECT_GE(degree_stats(g).min, 4u);
}

TEST(BarabasiAlbertTest, HubsEmerge) {
  util::Rng rng(6);
  const Graph g = barabasi_albert(2000, 2, rng).build();
  const DegreeStats stats = degree_stats(g);
  // Preferential attachment produces hubs far above the mean.
  EXPECT_GT(stats.max, 10 * static_cast<std::uint32_t>(stats.mean));
}

TEST(BarabasiAlbertTest, RejectsBadParameters) {
  util::Rng rng(7);
  EXPECT_THROW(barabasi_albert(5, 0, rng), InvalidArgument);
  EXPECT_THROW(barabasi_albert(3, 3, rng), InvalidArgument);
}

TEST(HolmeKimTest, MeanDegreeMatchesAttachment) {
  util::Rng rng(8);
  const std::uint32_t m = 10;
  const Graph g = holme_kim(1500, m, 0.5, rng).build();
  EXPECT_EQ(g.num_nodes(), 1500u);
  EXPECT_NEAR(degree_stats(g).mean, 2.0 * m, 0.5);
  EXPECT_EQ(connected_components(g).count, 1u);
}

TEST(HolmeKimTest, TriadClosureRaisesClustering) {
  util::Rng rng(9);
  const Graph low = holme_kim(1200, 4, 0.0, rng).build();
  const Graph high = holme_kim(1200, 4, 0.9, rng).build();
  util::Rng crng(10);
  const double c_low = clustering_coefficient(low, 400, crng);
  const double c_high = clustering_coefficient(high, 400, crng);
  EXPECT_GT(c_high, 2.0 * c_low);
}

TEST(WattsStrogatzTest, LatticeWithoutRewiring) {
  util::Rng rng(11);
  const Graph g = watts_strogatz(100, 3, 0.0, rng).build();
  EXPECT_EQ(g.num_edges(), 300u);
  for (NodeId v = 0; v < 100; ++v) EXPECT_EQ(g.degree(v), 6u);
}

TEST(WattsStrogatzTest, RewiringKeepsEdgeBudgetClose) {
  util::Rng rng(12);
  const Graph g = watts_strogatz(500, 4, 0.3, rng).build();
  // Rewiring may occasionally collide and drop an edge; stays close to nk.
  EXPECT_GE(g.num_edges(), 1950u);
  EXPECT_LE(g.num_edges(), 2000u);
}

TEST(WattsStrogatzTest, RejectsBadParameters) {
  util::Rng rng(13);
  EXPECT_THROW(watts_strogatz(10, 5, 0.1, rng), InvalidArgument);
  EXPECT_THROW(watts_strogatz(10, 2, 1.5, rng), InvalidArgument);
}

TEST(PowerlawConfigurationTest, DegreesWithinBounds) {
  util::Rng rng(14);
  const Graph g = powerlaw_configuration(1000, 2.5, 3, 80, rng).build();
  EXPECT_EQ(g.num_nodes(), 1000u);
  const DegreeStats stats = degree_stats(g);
  // Erasing self-loops/multi-edges can only lower degrees below target.
  EXPECT_LE(stats.max, 80u);
  EXPECT_GE(stats.mean, 3.0);
}

TEST(PowerlawConfigurationTest, MeanDegreeTracksGamma) {
  util::Rng rng(15);
  // gamma = 2.5, min 8: continuous approximation gives mean ≈ 8·1.5/0.5 = 24.
  const Graph g = powerlaw_configuration(4000, 2.5, 8, 400, rng).build();
  EXPECT_NEAR(degree_stats(g).mean, 24.0, 6.0);
}

TEST(PowerlawConfigurationTest, RejectsBadParameters) {
  util::Rng rng(16);
  EXPECT_THROW(powerlaw_configuration(100, 0.5, 2, 10, rng), InvalidArgument);
  EXPECT_THROW(powerlaw_configuration(100, 2.5, 5, 3, rng), InvalidArgument);
  EXPECT_THROW(powerlaw_configuration(100, 2.5, 2, 100, rng),
               InvalidArgument);
}

TEST(CommunityAffiliationTest, MeanDegreeMatchesRecipe) {
  util::Rng rng(17);
  // memberships=2, mean size 8, intra 0.45 ⇒ E[deg] ≈ 2·7·0.45 ≈ 6.3.
  const Graph g = community_affiliation(3000, 8.0, 2, 0.45, rng).build();
  EXPECT_EQ(g.num_nodes(), 3000u);
  EXPECT_NEAR(degree_stats(g).mean, 6.3, 1.5);
}

TEST(CommunityAffiliationTest, CommunitiesAreClustered) {
  util::Rng rng(18);
  const Graph g = community_affiliation(2000, 10.0, 2, 0.6, rng).build();
  util::Rng crng(19);
  // Dense overlapping cliques give much higher clustering than an ER graph
  // of the same density (~ mean_deg / n ≈ 0.004).
  EXPECT_GT(clustering_coefficient(g, 400, crng), 0.1);
}

// Determinism: every generator must produce the identical graph from the
// same seed and a different one from a different seed.
struct GeneratorCase {
  const char* name;
  Graph (*make)(std::uint64_t seed);
};

Graph make_er(std::uint64_t s) {
  util::Rng r(s);
  return erdos_renyi(200, 0.05, r).build();
}
Graph make_ba(std::uint64_t s) {
  util::Rng r(s);
  return barabasi_albert(200, 3, r).build();
}
Graph make_hk(std::uint64_t s) {
  util::Rng r(s);
  return holme_kim(200, 3, 0.5, r).build();
}
Graph make_ws(std::uint64_t s) {
  util::Rng r(s);
  return watts_strogatz(200, 3, 0.2, r).build();
}
Graph make_plc(std::uint64_t s) {
  util::Rng r(s);
  return powerlaw_configuration(200, 2.5, 2, 40, r).build();
}
Graph make_ca(std::uint64_t s) {
  util::Rng r(s);
  return community_affiliation(200, 8.0, 2, 0.5, r).build();
}

class GeneratorDeterminismTest
    : public testing::TestWithParam<GeneratorCase> {};

bool same_graph(const Graph& a, const Graph& b) {
  if (a.num_nodes() != b.num_nodes() || a.num_edges() != b.num_edges()) {
    return false;
  }
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    const EdgeEndpoints ea = a.endpoints(e);
    const auto eb = b.find_edge(ea.lo, ea.hi);
    if (!eb.has_value() || b.edge_prob(*eb) != a.edge_prob(e)) return false;
  }
  return true;
}

TEST_P(GeneratorDeterminismTest, SameSeedSameGraph) {
  const GeneratorCase& c = GetParam();
  EXPECT_TRUE(same_graph(c.make(42), c.make(42)));
}

TEST_P(GeneratorDeterminismTest, DifferentSeedDifferentGraph) {
  const GeneratorCase& c = GetParam();
  EXPECT_FALSE(same_graph(c.make(42), c.make(43)));
}

TEST_P(GeneratorDeterminismTest, NoSelfLoopsOrDuplicates) {
  // GraphBuilder enforces simplicity; this guards the generators' use of it
  // by checking the built CSR directly.
  const Graph g = GetParam().make(7);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto adj = g.neighbors(v);
    for (std::size_t i = 0; i < adj.size(); ++i) {
      EXPECT_NE(adj[i].node, v);
      if (i > 0) {
        EXPECT_NE(adj[i].node, adj[i - 1].node);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllGenerators, GeneratorDeterminismTest,
    testing::Values(GeneratorCase{"erdos_renyi", make_er},
                    GeneratorCase{"barabasi_albert", make_ba},
                    GeneratorCase{"holme_kim", make_hk},
                    GeneratorCase{"watts_strogatz", make_ws},
                    GeneratorCase{"powerlaw_configuration", make_plc},
                    GeneratorCase{"community_affiliation", make_ca}),
    [](const testing::TestParamInfo<GeneratorCase>& param_info) {
      return param_info.param.name;
    });

}  // namespace
}  // namespace accu::graph
