// Tests for the comparison baselines: ordering logic, exhaustion behaviour,
// and the Random baseline's uniformity.

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/strategies/baselines.hpp"
#include "graph/generators.hpp"

namespace accu {
namespace {

/// Star with center 0 (degree 4, all edge probs 1) plus a two-node chain
/// 5-6 with low-probability edge.
AccuInstance star_instance() {
  graph::GraphBuilder b(7);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  b.add_edge(0, 3);
  b.add_edge(0, 4);
  b.add_edge(5, 6, 0.1);
  return AccuInstance(b.build(), std::vector<UserClass>(7),
                      std::vector<double>(7, 1.0),
                      std::vector<std::uint32_t>(7, 1),
                      BenefitModel::uniform(7, 2.0, 1.0));
}

TEST(MaxDegreeTest, PicksByExpectedDegree) {
  const AccuInstance instance = star_instance();
  const Realization truth = Realization::certain(instance);
  MaxDegreeStrategy strategy;
  util::Rng rng(1);
  const SimulationResult result = simulate(instance, truth, strategy, 3, rng);
  // Expected degrees: 0 → 4; leaves → 1; 5,6 → 0.1.
  EXPECT_EQ(result.trace[0].target, 0u);
  // Next four are the degree-1 leaves in id order (stable tie-break).
  EXPECT_EQ(result.trace[1].target, 1u);
  EXPECT_EQ(result.trace[2].target, 2u);
}

TEST(MaxDegreeTest, ExhaustsAllNodes) {
  const AccuInstance instance = star_instance();
  const Realization truth = Realization::certain(instance);
  MaxDegreeStrategy strategy;
  util::Rng rng(2);
  const SimulationResult result =
      simulate(instance, truth, strategy, 100, rng);
  EXPECT_EQ(result.trace.size(), 7u);  // stops when everyone was requested
}

TEST(PageRankTest, CenterFirstOnStar) {
  const AccuInstance instance = star_instance();
  const Realization truth = Realization::certain(instance);
  PageRankStrategy strategy;
  util::Rng rng(3);
  const SimulationResult result = simulate(instance, truth, strategy, 1, rng);
  EXPECT_EQ(result.trace[0].target, 0u);
}

TEST(PageRankTest, NameAndDegreeNameDiffer) {
  EXPECT_EQ(PageRankStrategy{}.name(), "PageRank");
  EXPECT_EQ(MaxDegreeStrategy{}.name(), "MaxDegree");
  EXPECT_EQ(RandomStrategy{}.name(), "Random");
}

TEST(RandomTest, RequestsAreDistinctAndComplete) {
  const AccuInstance instance = star_instance();
  const Realization truth = Realization::certain(instance);
  RandomStrategy strategy;
  util::Rng rng(4);
  const SimulationResult result =
      simulate(instance, truth, strategy, 7, rng);
  std::vector<NodeId> targets;
  for (const RequestRecord& r : result.trace) targets.push_back(r.target);
  std::sort(targets.begin(), targets.end());
  for (NodeId v = 0; v < 7; ++v) EXPECT_EQ(targets[v], v);
}

TEST(RandomTest, FirstPickIsUniform) {
  const AccuInstance instance = star_instance();
  const Realization truth = Realization::certain(instance);
  std::vector<int> counts(7, 0);
  util::Rng rng(5);
  const int trials = 14000;
  for (int i = 0; i < trials; ++i) {
    RandomStrategy strategy;
    const SimulationResult result =
        simulate(instance, truth, strategy, 1, rng);
    ++counts[result.trace[0].target];
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 1.0 / 7.0, 0.02);
  }
}

TEST(RandomTest, DeterministicGivenRngStream) {
  const AccuInstance instance = star_instance();
  const Realization truth = Realization::certain(instance);
  util::Rng rng_a(6), rng_b(6);
  RandomStrategy sa, sb;
  const SimulationResult a = simulate(instance, truth, sa, 5, rng_a);
  const SimulationResult b = simulate(instance, truth, sb, 5, rng_b);
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].target, b.trace[i].target);
  }
}

/// Expected-degree order that counts how often the base class asks for
/// scores, and can be told to fail mid-build.
class CountingOrderStrategy final : public StaticOrderStrategy {
 public:
  [[nodiscard]] std::string name() const override { return "Counting"; }
  mutable int score_calls = 0;
  bool fail_next = false;

 protected:
  [[nodiscard]] std::vector<double> scores(
      const AccuInstance& instance) const override {
    ++score_calls;
    if (fail_next) throw std::runtime_error("scores failed");
    std::vector<double> score(instance.num_nodes());
    for (NodeId v = 0; v < instance.num_nodes(); ++v) {
      score[v] = instance.graph().expected_degree(v);
    }
    return score;
  }
};

TEST(StaticOrderTest, BuildsOncePerDistinctInstance) {
  const AccuInstance a = star_instance();
  const AccuInstance b = star_instance();  // same contents, new uid
  const AccuInstance a_copy = a;           // copies carry the uid
  ASSERT_NE(a.uid(), b.uid());
  ASSERT_EQ(a.uid(), a_copy.uid());
  CountingOrderStrategy strategy;
  util::Rng rng(5);
  strategy.reset(a, rng);
  EXPECT_EQ(strategy.score_calls, 1);
  strategy.reset(a, rng);
  strategy.reset(a_copy, rng);
  EXPECT_EQ(strategy.score_calls, 1);  // same uid: rewind only
  strategy.reset(b, rng);
  EXPECT_EQ(strategy.score_calls, 2);
  strategy.reset(b, rng);
  EXPECT_EQ(strategy.score_calls, 2);
}

TEST(StaticOrderTest, FailedBuildLeavesNoStaleHit) {
  const AccuInstance a = star_instance();
  const AccuInstance b = star_instance();
  CountingOrderStrategy strategy;
  util::Rng rng(7);
  strategy.reset(a, rng);
  strategy.fail_next = true;
  EXPECT_THROW(strategy.reset(b, rng), std::runtime_error);
  EXPECT_THROW(strategy.reset(b, rng), std::runtime_error);  // rebuilds
  strategy.reset(a, rng);  // a's completed order is still cached
  EXPECT_EQ(strategy.score_calls, 3);
  strategy.fail_next = false;
  strategy.reset(b, rng);
  EXPECT_EQ(strategy.score_calls, 4);
  strategy.reset(b, rng);
  EXPECT_EQ(strategy.score_calls, 4);
}

}  // namespace
}  // namespace accu
