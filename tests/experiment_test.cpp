// Tests for the experiment harness: TraceAggregator arithmetic, seeding /
// determinism, and the paired-realization design.

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/strategies/abm.hpp"
#include "core/strategies/baselines.hpp"
#include "datasets/datasets.hpp"
#include "graph/generators.hpp"

namespace accu {
namespace {

SimulationResult fake_result(std::vector<RequestRecord> trace) {
  SimulationResult result;
  result.trace = std::move(trace);
  result.total_benefit =
      result.trace.empty() ? 0.0 : result.trace.back().benefit_after;
  for (const RequestRecord& r : result.trace) {
    result.num_accepted += r.accepted;
    if (r.accepted && r.cautious_target) ++result.num_cautious_friends;
  }
  return result;
}

RequestRecord record(NodeId target, bool accepted, bool cautious,
                     double before, double after) {
  RequestRecord r;
  r.target = target;
  r.accepted = accepted;
  r.cautious_target = cautious;
  r.benefit_before = before;
  r.benefit_after = after;
  return r;
}

TEST(TraceAggregatorTest, CurvesAndSplits) {
  TraceAggregator agg;
  agg.add(fake_result({record(0, true, false, 0, 4),
                       record(1, true, true, 4, 10)}),
          2);
  agg.add(fake_result({record(2, false, false, 0, 0),
                       record(3, true, false, 0, 2)}),
          2);

  EXPECT_DOUBLE_EQ(agg.cumulative_benefit().at(0).mean(), 2.0);  // (4+0)/2
  EXPECT_DOUBLE_EQ(agg.cumulative_benefit().at(1).mean(), 6.0);  // (10+2)/2
  EXPECT_DOUBLE_EQ(agg.marginal().at(1).mean(), 4.0);            // (6+2)/2
  // Cautious/reckless split: request 1 was cautious in run 1 only.
  EXPECT_DOUBLE_EQ(agg.marginal_cautious().at(1).mean(), 3.0);   // (6+0)/2
  EXPECT_DOUBLE_EQ(agg.marginal_reckless().at(1).mean(), 1.0);   // (0+2)/2
  EXPECT_DOUBLE_EQ(agg.cautious_fraction().at(1).mean(), 0.5);
  EXPECT_DOUBLE_EQ(agg.total_benefit().mean(), 6.0);
  EXPECT_DOUBLE_EQ(agg.cautious_friends().mean(), 0.5);
  EXPECT_DOUBLE_EQ(agg.accepted_requests().mean(), 1.5);
}

TEST(TraceAggregatorTest, ShortTracesHoldFinalBenefit) {
  TraceAggregator agg;
  agg.add(fake_result({record(0, true, false, 0, 5)}), 3);
  EXPECT_EQ(agg.cumulative_benefit().length(), 3u);
  EXPECT_DOUBLE_EQ(agg.cumulative_benefit().at(2).mean(), 5.0);
  EXPECT_DOUBLE_EQ(agg.marginal().at(2).mean(), 0.0);
}

InstanceFactory tiny_factory() {
  return [](std::uint32_t sample, std::uint64_t seed) {
    util::Rng rng(seed + sample);
    datasets::DatasetConfig config;
    config.scale = 0.06;  // ~240 nodes
    config.num_cautious = 10;
    return datasets::make_dataset("facebook", config, rng);
  };
}

std::vector<StrategyFactory> two_strategies() {
  return {
      {"ABM", [] { return std::make_unique<AbmStrategy>(0.5, 0.5); }},
      {"Random", [] { return std::make_unique<RandomStrategy>(); }},
  };
}

TEST(RunExperimentTest, ShapesAndNames) {
  ExperimentConfig config;
  config.budget = 20;
  config.samples = 2;
  config.runs = 2;
  config.seed = 7;
  const ExperimentResult result =
      run_experiment(tiny_factory(), two_strategies(), config);
  ASSERT_EQ(result.strategy_names.size(), 2u);
  EXPECT_EQ(result.strategy_names[0], "ABM");
  const TraceAggregator& abm = result.by_name("ABM");
  EXPECT_EQ(abm.total_benefit().count(), 4u);  // samples × runs
  EXPECT_EQ(abm.cumulative_benefit().length(), 20u);
  EXPECT_THROW((void)result.by_name("nope"), InvalidArgument);
}

TEST(RunExperimentTest, DeterministicGivenSeed) {
  ExperimentConfig config;
  config.budget = 15;
  config.samples = 2;
  config.runs = 2;
  config.seed = 9;
  const ExperimentResult a =
      run_experiment(tiny_factory(), two_strategies(), config);
  const ExperimentResult b =
      run_experiment(tiny_factory(), two_strategies(), config);
  EXPECT_DOUBLE_EQ(a.by_name("ABM").total_benefit().mean(),
                   b.by_name("ABM").total_benefit().mean());
  EXPECT_DOUBLE_EQ(a.by_name("Random").total_benefit().mean(),
                   b.by_name("Random").total_benefit().mean());
  config.seed = 10;
  const ExperimentResult c =
      run_experiment(tiny_factory(), two_strategies(), config);
  EXPECT_NE(a.by_name("ABM").total_benefit().mean(),
            c.by_name("ABM").total_benefit().mean());
}

TEST(RunExperimentTest, PairedRealizationsAcrossStrategies) {
  // Two copies of the same deterministic policy must see identical worlds
  // and therefore produce identical aggregates.
  ExperimentConfig config;
  config.budget = 12;
  config.samples = 2;
  config.runs = 3;
  config.seed = 11;
  const std::vector<StrategyFactory> twins = {
      {"A", [] { return std::make_unique<AbmStrategy>(1.0, 0.0); }},
      {"B", [] { return std::make_unique<AbmStrategy>(1.0, 0.0); }},
  };
  const ExperimentResult result =
      run_experiment(tiny_factory(), twins, config);
  EXPECT_DOUBLE_EQ(result.by_name("A").total_benefit().mean(),
                   result.by_name("B").total_benefit().mean());
  for (std::size_t i = 0; i < config.budget; ++i) {
    EXPECT_DOUBLE_EQ(result.by_name("A").cumulative_benefit().at(i).mean(),
                     result.by_name("B").cumulative_benefit().at(i).mean());
  }
}

TEST(RunExperimentTest, CumulativeBenefitIsMonotone) {
  ExperimentConfig config;
  config.budget = 25;
  config.samples = 1;
  config.runs = 3;
  config.seed = 13;
  const ExperimentResult result =
      run_experiment(tiny_factory(), two_strategies(), config);
  for (const char* name : {"ABM", "Random"}) {
    const auto means = result.by_name(name).cumulative_benefit().means();
    for (std::size_t i = 1; i < means.size(); ++i) {
      EXPECT_GE(means[i], means[i - 1] - 1e-9) << name << " @ " << i;
    }
  }
}

}  // namespace
}  // namespace accu
