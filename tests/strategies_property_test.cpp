// Parameterized property suite run over EVERY policy in the library: the
// invariants any legal adaptive strategy must satisfy under the simulator
// (budget, distinct targets, benefit monotonicity, exhaustion, per-seed
// determinism) — so new strategies are covered by construction.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "core/strategies/abm.hpp"
#include "core/strategies/baselines.hpp"
#include "core/strategies/batched.hpp"
#include "core/strategies/lookahead.hpp"
#include "graph/generators.hpp"

namespace accu {
namespace {

struct StrategyCase {
  const char* label;
  std::function<std::unique_ptr<Strategy>()> make;
};

AccuInstance shared_instance(std::uint64_t seed = 777) {
  util::Rng rng(seed);
  graph::GraphBuilder b = graph::holme_kim(70, 4, 0.4, rng);
  b.assign_uniform_probs(rng);
  const Graph g = b.build();
  std::vector<UserClass> classes(70, UserClass::kReckless);
  std::vector<std::uint32_t> thresholds(70, 1);
  std::vector<NodeId> cautious;
  for (NodeId v = 8; v < 70 && cautious.size() < 6; ++v) {
    if (g.degree(v) < 3) continue;
    bool adjacent = false;
    for (const NodeId c : cautious) adjacent |= g.has_edge(v, c);
    if (adjacent) continue;
    classes[v] = UserClass::kCautious;
    thresholds[v] = 2;
    cautious.push_back(v);
  }
  std::vector<double> q(70);
  for (auto& x : q) x = rng.uniform();
  return AccuInstance(g, classes, q, thresholds,
                      BenefitModel::paper_default(classes));
}

class StrategyPropertyTest : public testing::TestWithParam<StrategyCase> {
 protected:
  static const AccuInstance& instance() {
    static const AccuInstance cached = shared_instance();
    return cached;
  }
};

TEST_P(StrategyPropertyTest, RespectsBudgetAndDistinctTargets) {
  util::Rng rng(1);
  const Realization truth = Realization::sample(instance(), rng);
  const auto strategy = GetParam().make();
  util::Rng srng(2);
  const SimulationResult result =
      simulate(instance(), truth, *strategy, 30, srng);
  EXPECT_LE(result.trace.size(), 30u);
  std::set<NodeId> seen;
  for (const RequestRecord& r : result.trace) {
    EXPECT_TRUE(seen.insert(r.target).second)
        << "duplicate target " << r.target;
    EXPECT_LT(r.target, instance().num_nodes());
  }
}

TEST_P(StrategyPropertyTest, BenefitIsMonotoneAlongTheTrace) {
  util::Rng rng(3);
  const Realization truth = Realization::sample(instance(), rng);
  const auto strategy = GetParam().make();
  util::Rng srng(4);
  const SimulationResult result =
      simulate(instance(), truth, *strategy, 40, srng);
  double previous = 0.0;
  for (const RequestRecord& r : result.trace) {
    EXPECT_DOUBLE_EQ(r.benefit_before, previous);
    EXPECT_GE(r.benefit_after, r.benefit_before);
    previous = r.benefit_after;
  }
  EXPECT_DOUBLE_EQ(previous, result.total_benefit);
}

TEST_P(StrategyPropertyTest, ExhaustsAllCandidatesUnderHugeBudget) {
  util::Rng rng(5);
  const Realization truth = Realization::sample(instance(), rng);
  const auto strategy = GetParam().make();
  util::Rng srng(6);
  const SimulationResult result =
      simulate(instance(), truth, *strategy, 10000, srng);
  // Every policy in the roster keeps requesting while candidates remain.
  EXPECT_EQ(result.trace.size(), instance().num_nodes());
}

TEST_P(StrategyPropertyTest, DeterministicGivenSeeds) {
  util::Rng rng(7);
  const Realization truth = Realization::sample(instance(), rng);
  const auto a = GetParam().make();
  const auto b = GetParam().make();
  util::Rng ra(8), rb(8);
  const SimulationResult result_a =
      simulate(instance(), truth, *a, 25, ra);
  const SimulationResult result_b =
      simulate(instance(), truth, *b, 25, rb);
  ASSERT_EQ(result_a.trace.size(), result_b.trace.size());
  for (std::size_t i = 0; i < result_a.trace.size(); ++i) {
    EXPECT_EQ(result_a.trace[i].target, result_b.trace[i].target);
  }
}

TEST_P(StrategyPropertyTest, FreshInstancePerSimulationIsReusable) {
  // Strategies are stateful across one simulation but must fully reset.
  util::Rng rng(9);
  const Realization truth = Realization::sample(instance(), rng);
  const auto strategy = GetParam().make();
  util::Rng r1(10), r2(10);
  const SimulationResult first =
      simulate(instance(), truth, *strategy, 15, r1);
  const SimulationResult second =
      simulate(instance(), truth, *strategy, 15, r2);
  ASSERT_EQ(first.trace.size(), second.trace.size());
  for (std::size_t i = 0; i < first.trace.size(); ++i) {
    EXPECT_EQ(first.trace[i].target, second.trace[i].target);
  }
}

std::vector<NodeId> targets_of(const AccuInstance& instance,
                               Strategy& strategy) {
  util::Rng rng(11);
  const Realization truth = Realization::sample(instance, rng);
  util::Rng srng(12);
  const SimulationResult result =
      simulate(instance, truth, strategy, 30, srng);
  std::vector<NodeId> targets;
  for (const RequestRecord& r : result.trace) targets.push_back(r.target);
  return targets;
}

TEST_P(StrategyPropertyTest, InterleavedReuseMatchesFresh) {
  // One strategy object walks A, B, a copy of A (same uid), then a new
  // instance constructed in A's storage (same address, new uid).  Any state
  // kept across resets — e.g. a memoized static order — must never leak
  // from one instance into another's trace.
  std::optional<AccuInstance> a(shared_instance(777));
  const AccuInstance b = shared_instance(778);
  ASSERT_EQ(a->num_nodes(), b.num_nodes());
  const auto reused = GetParam().make();
  const auto expect_fresh = [&](const AccuInstance& instance,
                                const char* step) {
    const auto fresh = GetParam().make();
    EXPECT_EQ(targets_of(instance, *reused), targets_of(instance, *fresh))
        << step;
  };
  expect_fresh(*a, "A");
  expect_fresh(b, "B");
  const AccuInstance a_copy = *a;
  ASSERT_EQ(a_copy.uid(), a->uid());
  expect_fresh(a_copy, "copy of A");
  const AccuInstance* const storage = &*a;
  a.reset();
  a.emplace(shared_instance(779));
  ASSERT_EQ(&*a, storage);
  ASSERT_NE(a->uid(), a_copy.uid());
  expect_fresh(*a, "new instance in A's storage");
  expect_fresh(a_copy, "copy of A again");
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyPropertyTest,
    testing::Values(
        StrategyCase{"abm",
                     [] { return std::make_unique<AbmStrategy>(0.5, 0.5); }},
        StrategyCase{"abm_reference",
                     [] {
                       AbmStrategy::Config config;
                       config.weights = {0.5, 0.5};
                       config.incremental = false;
                       return std::make_unique<AbmStrategy>(config);
                     }},
        StrategyCase{"greedy",
                     [] { return std::make_unique<AbmStrategy>(1.0, 0.0); }},
        StrategyCase{"maxdegree",
                     [] { return std::make_unique<MaxDegreeStrategy>(); }},
        StrategyCase{"pagerank",
                     [] { return std::make_unique<PageRankStrategy>(); }},
        StrategyCase{"random",
                     [] { return std::make_unique<RandomStrategy>(); }},
        StrategyCase{"batched5",
                     [] {
                       return std::make_unique<BatchedAbmStrategy>(
                           PotentialWeights{0.5, 0.5}, 5);
                     }},
        StrategyCase{"batched40",
                     [] {
                       return std::make_unique<BatchedAbmStrategy>(
                           PotentialWeights{0.5, 0.5}, 40);
                     }},
        StrategyCase{"lookahead",
                     [] {
                       LookaheadStrategy::Config config;
                       config.beam = 4;
                       config.scenario_samples = 2;
                       return std::make_unique<LookaheadStrategy>(config);
                     }}),
    [](const testing::TestParamInfo<StrategyCase>& param_info) {
      return param_info.param.label;
    });

}  // namespace
}  // namespace accu
