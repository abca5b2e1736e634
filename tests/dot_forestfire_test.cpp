// Tests for the DOT exporter, the forest-fire generator, and fuzz-style
// round trips of graph/instance serialization over random generator
// outputs.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "graph/algorithms.hpp"
#include "graph/dot.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "test_paths.hpp"

namespace accu::graph {
namespace {

using test::temp_path;

Graph triangle() {
  GraphBuilder b(3);
  b.add_edge(0, 1, 0.5);
  b.add_edge(1, 2, 0.25);
  b.add_edge(0, 2, 1.0);
  return b.build();
}

TEST(DotTest, BasicStructure) {
  std::ostringstream os;
  write_dot(triangle(), os);
  const std::string out = os.str();
  EXPECT_NE(out.find("graph accu {"), std::string::npos);
  EXPECT_NE(out.find("n0 -- n1"), std::string::npos);
  EXPECT_NE(out.find("n1 -- n2"), std::string::npos);
  EXPECT_NE(out.find("n0 -- n2"), std::string::npos);
  EXPECT_EQ(out.find("label"), std::string::npos);  // no probs by default
  EXPECT_EQ(out.back(), '\n');
}

TEST(DotTest, ProbabilitiesAndAttributes) {
  DotOptions options;
  options.name = "attack";
  options.edge_probabilities = true;
  options.node_attributes = [](NodeId v) {
    return v == 0 ? std::string("color=red") : std::string();
  };
  options.edge_attributes = [](EdgeId e) {
    return e == 0 ? std::string("style=dashed") : std::string();
  };
  std::ostringstream os;
  write_dot(triangle(), os, options);
  const std::string out = os.str();
  EXPECT_NE(out.find("graph attack {"), std::string::npos);
  EXPECT_NE(out.find("n0 [color=red];"), std::string::npos);
  EXPECT_NE(out.find("label=\"0.50\",style=dashed"), std::string::npos);
  EXPECT_NE(out.find("label=\"0.25\""), std::string::npos);
}

TEST(DotTest, FileWriteAndMissingDirectory) {
  const std::string path = temp_path("accu_dot_test.dot");
  write_dot_file(triangle(), path);
  std::ifstream is(path);
  EXPECT_TRUE(is.good());
  EXPECT_THROW(write_dot_file(triangle(), "/nonexistent/dir/x.dot"),
               IoError);
}

TEST(ForestFireTest, ConnectedAndSimple) {
  util::Rng rng(1);
  const Graph g = forest_fire(500, 0.35, rng).build();
  EXPECT_EQ(g.num_nodes(), 500u);
  EXPECT_EQ(connected_components(g).count, 1u);  // every arrival links
  EXPECT_GE(g.num_edges(), 499u);                // at least a tree
}

TEST(ForestFireTest, ForwardProbabilityDensifies) {
  util::Rng rng1(2), rng2(2);
  const Graph sparse = forest_fire(800, 0.1, rng1).build();
  const Graph dense = forest_fire(800, 0.45, rng2).build();
  EXPECT_GT(dense.num_edges(), sparse.num_edges());
}

TEST(ForestFireTest, ZeroForwardIsATree) {
  util::Rng rng(3);
  const Graph g = forest_fire(200, 0.0, rng).build();
  EXPECT_EQ(g.num_edges(), 199u);
}

TEST(ForestFireTest, RejectsBadParameters) {
  util::Rng rng(4);
  EXPECT_THROW(forest_fire(1, 0.3, rng), InvalidArgument);
  EXPECT_THROW(forest_fire(10, 1.0, rng), InvalidArgument);
}

TEST(ForestFireTest, Deterministic) {
  util::Rng a(5), b(5);
  const Graph ga = forest_fire(150, 0.3, a).build();
  const Graph gb = forest_fire(150, 0.3, b).build();
  ASSERT_EQ(ga.num_edges(), gb.num_edges());
  for (EdgeId e = 0; e < ga.num_edges(); ++e) {
    const EdgeEndpoints ep = ga.endpoints(e);
    EXPECT_TRUE(gb.has_edge(ep.lo, ep.hi));
  }
}

// Fuzz: edge-list round trips across every generator family.
class IoFuzzTest : public testing::TestWithParam<std::uint64_t> {};

TEST_P(IoFuzzTest, EdgeListRoundTripsExactly) {
  util::Rng rng(GetParam());
  GraphBuilder b = [&]() -> GraphBuilder {
    switch (GetParam() % 4) {
      case 0:
        return erdos_renyi(60, 0.08, rng);
      case 1:
        return barabasi_albert(60, 2, rng);
      case 2:
        return forest_fire(60, 0.3, rng);
      default:
        return watts_strogatz(60, 3, 0.2, rng);
    }
  }();
  b.assign_uniform_probs(rng);
  const Graph g = b.build();
  std::stringstream buffer;
  write_edge_list(g, buffer);
  const Graph back = read_edge_list(buffer);
  ASSERT_EQ(back.num_nodes(), g.num_nodes());
  ASSERT_EQ(back.num_edges(), g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const EdgeEndpoints ep = g.endpoints(e);
    const auto mirrored = back.find_edge(ep.lo, ep.hi);
    ASSERT_TRUE(mirrored.has_value());
    EXPECT_DOUBLE_EQ(back.edge_prob(*mirrored), g.edge_prob(e));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IoFuzzTest,
                         testing::Values(101u, 102u, 103u, 104u, 105u, 106u,
                                         107u, 108u));

}  // namespace
}  // namespace accu::graph
