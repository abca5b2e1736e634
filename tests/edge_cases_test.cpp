// Robustness edge cases across the stack: degenerate instances (empty,
// single-node, isolated nodes, zero probabilities), zero budgets, and the
// logging/timing utilities.

#include <gtest/gtest.h>

#include "core/simulator.hpp"
#include "core/strategies/abm.hpp"
#include "core/strategies/baselines.hpp"
#include "graph/generators.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace accu {
namespace {

AccuInstance empty_instance() {
  return AccuInstance(graph::GraphBuilder(0).build(), {}, {}, {},
                      BenefitModel({}, {}));
}

TEST(EdgeCaseTest, EmptyInstanceSimulates) {
  const AccuInstance instance = empty_instance();
  const Realization truth = Realization::certain(instance);
  AbmStrategy abm(0.5, 0.5);
  util::Rng rng(1);
  const SimulationResult result = simulate(instance, truth, abm, 10, rng);
  EXPECT_TRUE(result.trace.empty());
  EXPECT_DOUBLE_EQ(result.total_benefit, 0.0);
}

TEST(EdgeCaseTest, SingleIsolatedNode) {
  graph::GraphBuilder b(1);
  const AccuInstance instance(b.build(), {UserClass::kReckless}, {1.0}, {1},
                              BenefitModel::uniform(1, 2.0, 1.0));
  const Realization truth = Realization::certain(instance);
  AbmStrategy abm(0.5, 0.5);
  util::Rng rng(2);
  const SimulationResult result = simulate(instance, truth, abm, 5, rng);
  ASSERT_EQ(result.trace.size(), 1u);
  EXPECT_TRUE(result.trace[0].accepted);
  EXPECT_DOUBLE_EQ(result.total_benefit, 2.0);
}

TEST(EdgeCaseTest, ZeroBudgetSendsNothing) {
  graph::GraphBuilder b(3);
  b.add_edge(0, 1);
  const AccuInstance instance(b.build(), std::vector<UserClass>(3),
                              std::vector<double>(3, 1.0),
                              std::vector<std::uint32_t>(3, 1),
                              BenefitModel::uniform(3, 2.0, 1.0));
  const Realization truth = Realization::certain(instance);
  RandomStrategy random;
  util::Rng rng(3);
  const SimulationResult result = simulate(instance, truth, random, 0, rng);
  EXPECT_TRUE(result.trace.empty());
}

TEST(EdgeCaseTest, AllRejectingPopulation) {
  // q = 0 everywhere: every request bounces, no edges are ever revealed,
  // benefit stays 0, and the budget is still spent (matching the paper's
  // Algorithm 1, which sends exactly k requests).
  graph::GraphBuilder b = [] {
    graph::GraphBuilder builder(6);
    builder.add_edge(0, 1, 0.5);
    builder.add_edge(2, 3, 0.5);
    return builder;
  }();
  const AccuInstance instance(b.build(), std::vector<UserClass>(6),
                              std::vector<double>(6, 0.0),
                              std::vector<std::uint32_t>(6, 1),
                              BenefitModel::uniform(6, 2.0, 1.0));
  util::Rng rng(4);
  const Realization truth = Realization::sample(instance, rng);
  AbmStrategy abm(0.5, 0.5);
  const SimulationResult result = simulate(instance, truth, abm, 4, rng);
  EXPECT_EQ(result.trace.size(), 4u);
  for (const RequestRecord& r : result.trace) EXPECT_FALSE(r.accepted);
  EXPECT_DOUBLE_EQ(result.total_benefit, 0.0);
}

TEST(EdgeCaseTest, ZeroProbabilityEdgesYieldNoFofMass) {
  // All potential edges have p = 0: friends never bring FOFs and ABM's
  // potential reduces to q·B_f.
  graph::GraphBuilder b(4);
  b.add_edge(0, 1, 0.0);
  b.add_edge(1, 2, 0.0);
  const AccuInstance instance(b.build(), std::vector<UserClass>(4),
                              {1.0, 1.0, 1.0, 1.0},
                              std::vector<std::uint32_t>(4, 1),
                              BenefitModel::uniform(4, 2.0, 1.0));
  const AttackerView view(instance);
  EXPECT_DOUBLE_EQ(AbmStrategy::direct_gain(view, 1), 2.0);
  const Realization truth({false, false}, std::vector<bool>(4, true));
  AbmStrategy abm = make_classic_greedy();
  util::Rng rng(5);
  const SimulationResult result = simulate(instance, truth, abm, 4, rng);
  EXPECT_DOUBLE_EQ(result.total_benefit, 8.0);  // 4 friends, 0 FOFs
}

TEST(EdgeCaseTest, IsolatedCautiousUserIsRejectedByValidation) {
  // θ >= 1 but no neighbors at all: the instance must refuse it (the paper
  // removes such users).
  graph::GraphBuilder b(2);
  const std::vector<UserClass> classes = {UserClass::kReckless,
                                          UserClass::kCautious};
  EXPECT_THROW(AccuInstance(b.build(), classes, {1.0, 0.0}, {1, 1},
                            BenefitModel::uniform(2, 2.0, 1.0)),
               InvalidArgument);
}

TEST(EdgeCaseTest, BudgetLargerThanPopulation) {
  graph::GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  const AccuInstance instance(b.build(), std::vector<UserClass>(3),
                              std::vector<double>(3, 1.0),
                              std::vector<std::uint32_t>(3, 1),
                              BenefitModel::uniform(3, 2.0, 1.0));
  const Realization truth = Realization::certain(instance);
  for (auto make : {+[]() -> std::unique_ptr<Strategy> {
                      return std::make_unique<AbmStrategy>(0.5, 0.5);
                    },
                    +[]() -> std::unique_ptr<Strategy> {
                      return std::make_unique<MaxDegreeStrategy>();
                    }}) {
    const auto strategy = make();
    util::Rng rng(6);
    const SimulationResult result =
        simulate(instance, truth, *strategy, 1000, rng);
    EXPECT_EQ(result.trace.size(), 3u) << strategy->name();
  }
}

// ------------------------------------------------------------- util odds ----

TEST(LogTest, LevelGating) {
  const util::LogLevel before = util::log_level();
  util::set_log_level(util::LogLevel::kError);
  EXPECT_EQ(util::log_level(), util::LogLevel::kError);
  // Filtered and unfiltered calls must both be safe to make.
  util::log_debug("dropped %d", 1);
  util::log_error("kept %s", "message");
  util::set_log_level(util::LogLevel::kDebug);
  util::log_debug("now visible %d", 2);
  util::set_log_level(before);
}

TEST(TimerTest, MeasuresForwardTime) {
  util::Timer timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + static_cast<double>(i);
  (void)sink;
  const double first = timer.seconds();
  EXPECT_GE(first, 0.0);
  EXPECT_GE(timer.milliseconds(), first * 1e3 * 0.5);
  timer.reset();
  EXPECT_LE(timer.seconds(), first + 1.0);
}

}  // namespace
}  // namespace accu
