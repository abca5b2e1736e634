// Tests for the adaptive simulator: acceptance resolution for both user
// classes, budget accounting, trace bookkeeping (telescoping marginals),
// early stopping, and randomized cross-checks of the final benefit against
// the set-function reference.

#include <gtest/gtest.h>

#include <numeric>

#include "core/engine.hpp"
#include "core/strategies/baselines.hpp"
#include "core/theory/set_benefit.hpp"
#include "graph/generators.hpp"

namespace accu {
namespace {

/// Scripted policy: requests a fixed sequence of nodes.
class ScriptedStrategy final : public Strategy {
 public:
  explicit ScriptedStrategy(std::vector<NodeId> script)
      : script_(std::move(script)) {}

  void reset(const AccuInstance&, util::Rng&) override { cursor_ = 0; }

  NodeId select(const AttackerView& view, util::Rng&) override {
    while (cursor_ < script_.size() && view.is_requested(script_[cursor_])) {
      ++cursor_;
    }
    return cursor_ < script_.size() ? script_[cursor_++] : kInvalidNode;
  }

  [[nodiscard]] std::string name() const override { return "Scripted"; }

 private:
  std::vector<NodeId> script_;
  std::size_t cursor_ = 0;
};

/// Path 0-1-2-3 where node 2 is cautious with θ=2; benefits 3/1.
AccuInstance path_instance() {
  graph::GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  std::vector<UserClass> classes(4, UserClass::kReckless);
  classes[2] = UserClass::kCautious;
  return AccuInstance(b.build(), classes, {1.0, 1.0, 0.0, 1.0}, {1, 1, 2, 1},
                      BenefitModel::uniform(4, 3.0, 1.0));
}

TEST(SimulatorTest, RecklessAcceptanceFollowsCoins) {
  const AccuInstance instance = path_instance();
  // Coins: 0 accepts, 1 rejects, 3 accepts.
  const Realization truth(std::vector<bool>(3, true),
                          {true, false, true, true});
  ScriptedStrategy strategy({0, 1, 3});
  util::Rng rng(1);
  const SimulationResult result = simulate(instance, truth, strategy, 3, rng);
  ASSERT_EQ(result.trace.size(), 3u);
  EXPECT_TRUE(result.trace[0].accepted);
  EXPECT_FALSE(result.trace[1].accepted);
  EXPECT_TRUE(result.trace[2].accepted);
  EXPECT_EQ(result.num_accepted, 2u);
  EXPECT_EQ(result.friends, (std::vector<NodeId>{0, 3}));
}

TEST(SimulatorTest, CautiousAcceptanceIsThresholdDeterministic) {
  const AccuInstance instance = path_instance();
  const Realization truth = Realization::certain(instance);
  util::Rng rng(2);
  {
    // Request 2 before any mutual friends: rejected.
    ScriptedStrategy early({2, 1, 3});
    const SimulationResult r = simulate(instance, truth, early, 3, rng);
    EXPECT_FALSE(r.trace[0].accepted);
    EXPECT_TRUE(r.trace[0].cautious_target);
    EXPECT_EQ(r.num_cautious_friends, 0u);
  }
  {
    // Befriend both neighbors (1 and 3) first: threshold 2 reached.
    ScriptedStrategy late({1, 3, 2});
    const SimulationResult r = simulate(instance, truth, late, 3, rng);
    EXPECT_TRUE(r.trace[2].accepted);
    EXPECT_EQ(r.num_cautious_friends, 1u);
  }
  {
    // Only one neighbor: still below threshold.
    ScriptedStrategy one({1, 2});
    const SimulationResult r = simulate(instance, truth, one, 2, rng);
    EXPECT_FALSE(r.trace[1].accepted);
  }
}

TEST(SimulatorTest, BudgetIsRespected) {
  const AccuInstance instance = path_instance();
  const Realization truth = Realization::certain(instance);
  ScriptedStrategy strategy({0, 1, 2, 3});
  util::Rng rng(3);
  const SimulationResult result = simulate(instance, truth, strategy, 2, rng);
  EXPECT_EQ(result.trace.size(), 2u);
}

TEST(SimulatorTest, StopsWhenStrategyExhausted) {
  const AccuInstance instance = path_instance();
  const Realization truth = Realization::certain(instance);
  ScriptedStrategy strategy({0});
  util::Rng rng(4);
  const SimulationResult result =
      simulate(instance, truth, strategy, 10, rng);
  EXPECT_EQ(result.trace.size(), 1u);
}

TEST(SimulatorTest, MarginalsTelescopeToTotal) {
  const AccuInstance instance = path_instance();
  const Realization truth = Realization::certain(instance);
  ScriptedStrategy strategy({1, 3, 2, 0});
  util::Rng rng(5);
  const SimulationResult result =
      simulate(instance, truth, strategy, 4, rng);
  double sum = 0.0;
  for (const RequestRecord& r : result.trace) sum += r.marginal();
  EXPECT_DOUBLE_EQ(sum, result.total_benefit);
  // Consecutive records chain exactly.
  for (std::size_t i = 1; i < result.trace.size(); ++i) {
    EXPECT_DOUBLE_EQ(result.trace[i].benefit_before,
                     result.trace[i - 1].benefit_after);
  }
}

TEST(SimulatorTest, KnownBenefitOnPath) {
  const AccuInstance instance = path_instance();
  const Realization truth = Realization::certain(instance);
  // Friends 1 and 3 ⇒ FOF {0, 2}: benefit 3+3+1+1 = 8; then 2 accepts:
  // +3 −1 ⇒ 10; plus 0 upgrades from FOF to friend: +3 −1 ⇒ 12.
  ScriptedStrategy strategy({1, 3, 2, 0});
  util::Rng rng(6);
  const SimulationResult result =
      simulate(instance, truth, strategy, 4, rng);
  EXPECT_DOUBLE_EQ(result.total_benefit, 12.0);
  EXPECT_DOUBLE_EQ(result.trace[0].marginal(), 5.0);  // friend 1 + FOF 0,2
  EXPECT_DOUBLE_EQ(result.trace[1].marginal(), 3.0);  // friend 3, 2 already FOF
  EXPECT_DOUBLE_EQ(result.trace[2].marginal(), 2.0);  // upgrade cautious 2
  EXPECT_DOUBLE_EQ(result.trace[3].marginal(), 2.0);  // upgrade 0
}

TEST(SimulatorTest, ViewOutExposesFinalState) {
  const AccuInstance instance = path_instance();
  const Realization truth = Realization::certain(instance);
  ScriptedStrategy strategy({1, 3});
  util::Rng rng(7);
  SimWorkspace ws;
  AttackerView& view = ws.reset_view(instance);
  SimulationResult result;
  simulate_into(instance, truth, strategy, 2, rng, view, ws, result);
  EXPECT_TRUE(view.is_friend(1));
  EXPECT_TRUE(view.is_fof(2));
  EXPECT_DOUBLE_EQ(view.current_benefit(), result.total_benefit);
}

// Property: for any request order, the sequential simulation in which the
// cautious users are requested *after* the reckless ones yields exactly the
// set-function benefit of the requested set (the semantics Lemma 2 relies
// on); and every simulated benefit is within the set-function value of the
// same request set when cautious ordering already respects thresholds.
class SimulatorPropertyTest : public testing::TestWithParam<std::uint64_t> {};

TEST_P(SimulatorPropertyTest, SequentialMatchesSetSemanticsRecklessFirst) {
  util::Rng rng(GetParam());
  graph::GraphBuilder b = graph::erdos_renyi(30, 0.15, rng);
  b.assign_uniform_probs(rng);
  const Graph g = b.build();
  std::vector<UserClass> classes(30, UserClass::kReckless);
  std::vector<std::uint32_t> thresholds(30, 1);
  std::vector<NodeId> cautious;
  for (NodeId v = 0; v < 30 && cautious.size() < 3; ++v) {
    if (g.degree(v) < 2) continue;
    bool adjacent = false;
    for (const NodeId c : cautious) adjacent |= g.has_edge(v, c);
    if (adjacent) continue;
    classes[v] = UserClass::kCautious;
    thresholds[v] = 1 + (v % 2);
    cautious.push_back(v);
  }
  std::vector<double> q(30);
  for (auto& x : q) x = rng.uniform();
  const AccuInstance instance(g, classes, q, thresholds,
                              BenefitModel::uniform(30, 2.0, 1.0));
  const Realization truth = Realization::sample(instance, rng);

  // Random subset, reckless first then cautious.
  std::vector<NodeId> requested;
  for (NodeId v = 0; v < 30; ++v) {
    if (rng.bernoulli(0.4)) requested.push_back(v);
  }
  std::stable_sort(requested.begin(), requested.end(),
                   [&](NodeId a2, NodeId b2) {
                     return !instance.is_cautious(a2) &&
                            instance.is_cautious(b2);
                   });
  ScriptedStrategy strategy(requested);
  util::Rng srng(GetParam() + 1000);
  const SimulationResult result = simulate(
      instance, truth, strategy,
      static_cast<std::uint32_t>(requested.size()), srng);
  EXPECT_NEAR(result.total_benefit, set_benefit(instance, truth, requested),
              1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorPropertyTest,
                         testing::Values(11u, 12u, 13u, 14u, 15u, 16u));

}  // namespace
}  // namespace accu
