// Tests for the unreliable-platform layer: FaultConfig validation, the
// FaultModel stream, fault handling under SimOptions::faults (abandonment,
// suspension accounting, retry bookkeeping), the RetryingStrategy
// decorator, and the golden determinism guarantees — zero faults is
// byte-identical to the pristine simulator, and faulted sweeps reproduce
// exactly across repeat runs and across thread counts.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/experiment.hpp"
#include "core/simulator.hpp"
#include "core/strategies/abm.hpp"
#include "core/strategies/baselines.hpp"
#include "core/strategies/batched.hpp"
#include "core/strategies/retrying.hpp"
#include "datasets/datasets.hpp"
#include "graph/generators.hpp"

namespace accu {
namespace {

AccuInstance tiny_instance(std::uint64_t seed = 5) {
  util::Rng rng(seed);
  datasets::DatasetConfig config;
  config.scale = 0.05;  // ~200 nodes
  config.num_cautious = 8;
  return datasets::make_dataset("facebook", config, rng);
}

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

TEST(FaultConfigTest, ValidationRejectsBadRates) {
  FaultConfig config;
  config.drop_rate = -0.1;
  EXPECT_THROW(config.validate(), InvalidArgument);
  config.drop_rate = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(config.validate(), InvalidArgument);
  config.drop_rate = 1.5;
  EXPECT_THROW(config.validate(), InvalidArgument);
  config.drop_rate = 0.5;
  config.timeout_rate = 0.6;  // sum > 1
  EXPECT_THROW(config.validate(), InvalidArgument);
  config.timeout_rate = 0.5;  // sum == 1 is fine
  EXPECT_NO_THROW(config.validate());
}

TEST(FaultConfigTest, UniformSplitsEvenly) {
  const FaultConfig config = FaultConfig::uniform(0.2, 5);
  EXPECT_DOUBLE_EQ(config.drop_rate, 0.05);
  EXPECT_DOUBLE_EQ(config.timeout_rate, 0.05);
  EXPECT_DOUBLE_EQ(config.transient_rate, 0.05);
  EXPECT_DOUBLE_EQ(config.rate_limit_rate, 0.05);
  EXPECT_EQ(config.suspension_rounds, 5u);
  EXPECT_DOUBLE_EQ(config.total_rate(), 0.2);
  EXPECT_THROW((void)FaultConfig::uniform(1.5), InvalidArgument);
}

TEST(FaultModelTest, ZeroRateNeverFaultsAndDrawsNothing) {
  FaultModel model(FaultConfig{}, 99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(model.next(), FaultKind::kNone);
}

TEST(FaultModelTest, DeterministicStream) {
  const FaultConfig config = FaultConfig::uniform(0.5);
  FaultModel a(config, 7);
  FaultModel b(config, 7);
  for (int i = 0; i < 500; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(FaultModelTest, RatesAreRoughlyHonoured) {
  FaultConfig config;
  config.drop_rate = 0.3;
  config.rate_limit_rate = 0.1;
  FaultModel model(config, 13);
  int drops = 0, limits = 0, none = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    switch (model.next()) {
      case FaultKind::kDrop: ++drops; break;
      case FaultKind::kRateLimit: ++limits; break;
      case FaultKind::kNone: ++none; break;
      default: FAIL() << "unexpected fault kind";
    }
  }
  EXPECT_NEAR(static_cast<double>(drops) / n, 0.3, 0.02);
  EXPECT_NEAR(static_cast<double>(limits) / n, 0.1, 0.02);
  EXPECT_NEAR(static_cast<double>(none) / n, 0.6, 0.02);
}

// --- the byte-identity guarantee ------------------------------------------

std::vector<std::unique_ptr<Strategy>> roster() {
  std::vector<std::unique_ptr<Strategy>> out;
  out.push_back(std::make_unique<AbmStrategy>(0.5, 0.5));
  out.push_back(std::make_unique<AbmStrategy>(1.0, 0.0));
  out.push_back(std::make_unique<MaxDegreeStrategy>());
  out.push_back(std::make_unique<PageRankStrategy>());
  out.push_back(std::make_unique<RandomStrategy>());
  out.push_back(std::make_unique<BatchedAbmStrategy>(
      PotentialWeights{0.5, 0.5}, 10));
  return out;
}

void expect_identical(const SimulationResult& a, const SimulationResult& b) {
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].target, b.trace[i].target) << "request " << i;
    EXPECT_EQ(a.trace[i].accepted, b.trace[i].accepted) << "request " << i;
    EXPECT_EQ(a.trace[i].fault, b.trace[i].fault) << "request " << i;
    EXPECT_EQ(a.trace[i].attempt, b.trace[i].attempt) << "request " << i;
    // Bit-exact, not approximately equal: the loops must perform the very
    // same arithmetic.
    EXPECT_EQ(a.trace[i].benefit_before, b.trace[i].benefit_before);
    EXPECT_EQ(a.trace[i].benefit_after, b.trace[i].benefit_after);
  }
  EXPECT_EQ(a.total_benefit, b.total_benefit);
  EXPECT_EQ(a.num_accepted, b.num_accepted);
  EXPECT_EQ(a.num_cautious_friends, b.num_cautious_friends);
  EXPECT_EQ(a.friends, b.friends);
}

TEST(SimulateWithFaultsTest, ZeroFaultsIsByteIdenticalToSimulate) {
  const AccuInstance instance = tiny_instance();
  util::Rng truth_rng(21);
  const Realization truth = Realization::sample(instance, truth_rng);
  for (auto& pristine : roster()) {
    util::Rng rng_a(77);
    const SimulationResult expected =
        simulate(instance, truth, *pristine, 40, rng_a);
    FaultModel no_faults(FaultConfig{}, 1234);
    util::Rng rng_b(77);
    const SimulationResult actual = simulate(
        instance, truth, *pristine, 40, rng_b, {.faults = &no_faults});
    SCOPED_TRACE(pristine->name());
    expect_identical(expected, actual);
    EXPECT_EQ(actual.num_faulted, 0u);
    EXPECT_EQ(actual.num_retries, 0u);
    EXPECT_EQ(actual.rounds_suspended, 0u);
    EXPECT_EQ(actual.num_abandoned, 0u);
  }
}

TEST(SimulateWithFaultsTest, RetryWrapIsNoOpWithoutFaults) {
  // Wrapping must not consume strategy randomness: the wrapped policy's
  // zero-fault trace equals the bare policy's byte for byte.
  const AccuInstance instance = tiny_instance();
  util::Rng truth_rng(22);
  const Realization truth = Realization::sample(instance, truth_rng);
  auto bare = std::make_unique<AbmStrategy>(0.5, 0.5);
  util::Rng rng_a(5);
  const SimulationResult expected =
      simulate(instance, truth, *bare, 40, rng_a);
  RetryingStrategy wrapped(std::make_unique<AbmStrategy>(0.5, 0.5),
                           util::RetryPolicy::exponential_jitter(3));
  FaultModel no_faults(FaultConfig{}, 9);
  util::Rng rng_b(5);
  const SimulationResult actual =
      simulate(instance, truth, wrapped, 40, rng_b, {.faults = &no_faults});
  expect_identical(expected, actual);
}

// --- fault semantics -------------------------------------------------------

TEST(SimulateWithFaultsTest, BareStrategyAbandonsEveryFault) {
  const AccuInstance instance = path_instance();
  const Realization truth = Realization::certain(instance);
  FaultConfig config;
  config.drop_rate = 1.0;  // every attempt is lost
  FaultModel faults(config, 3);
  ScriptedStrategy strategy({0, 1, 3});
  util::Rng rng(1);
  const SimulationResult result =
      simulate(instance, truth, strategy, 10, rng, {.faults = &faults});
  // Three targets, each dropped once and written off; the strategy then
  // has nothing left and stops.
  ASSERT_EQ(result.trace.size(), 3u);
  for (const RequestRecord& r : result.trace) {
    EXPECT_EQ(r.fault, FaultKind::kDrop);
    EXPECT_FALSE(r.accepted);
    EXPECT_EQ(r.attempt, 0u);
    EXPECT_DOUBLE_EQ(r.marginal(), 0.0);
  }
  EXPECT_EQ(result.num_faulted, 3u);
  EXPECT_EQ(result.num_abandoned, 3u);
  EXPECT_EQ(result.num_retries, 0u);
  EXPECT_EQ(result.num_accepted, 0u);
  EXPECT_DOUBLE_EQ(result.total_benefit, 0.0);
}

TEST(SimulateWithFaultsTest, RateLimitSuspendsAndBudgetKeepsTicking) {
  const AccuInstance instance = path_instance();
  const Realization truth = Realization::certain(instance);
  FaultConfig config;
  config.rate_limit_rate = 1.0;
  config.suspension_rounds = 3;
  FaultModel faults(config, 4);
  ScriptedStrategy strategy({0, 1, 3});
  util::Rng rng(1);
  const SimulationResult result =
      simulate(instance, truth, strategy, 5, rng, {.faults = &faults});
  // Round 1: request 0, rate-limited.  Rounds 2-4: suspension stalls.
  // Round 5: request 1, rate-limited.  Budget exhausted.
  ASSERT_EQ(result.trace.size(), 5u);
  EXPECT_EQ(result.trace[0].fault, FaultKind::kRateLimit);
  EXPECT_EQ(result.trace[1].fault, FaultKind::kSuspensionStall);
  EXPECT_EQ(result.trace[1].target, kInvalidNode);
  EXPECT_EQ(result.trace[2].fault, FaultKind::kSuspensionStall);
  EXPECT_EQ(result.trace[3].fault, FaultKind::kSuspensionStall);
  EXPECT_EQ(result.trace[4].fault, FaultKind::kRateLimit);
  EXPECT_EQ(result.num_faulted, 2u);
  EXPECT_EQ(result.rounds_suspended, 3u);
}

TEST(SimulateWithFaultsTest, SuspensionTruncatesAtBudget) {
  const AccuInstance instance = path_instance();
  const Realization truth = Realization::certain(instance);
  FaultConfig config;
  config.rate_limit_rate = 1.0;
  config.suspension_rounds = 10;  // longer than the remaining budget
  FaultModel faults(config, 4);
  ScriptedStrategy strategy({0});
  util::Rng rng(1);
  const SimulationResult result =
      simulate(instance, truth, strategy, 4, rng, {.faults = &faults});
  ASSERT_EQ(result.trace.size(), 4u);  // 1 fault + 3 stalls, then budget out
  EXPECT_EQ(result.rounds_suspended, 3u);
}

TEST(RetryingStrategyTest, RetriesThenAbandonsAfterPolicyExhausted) {
  const AccuInstance instance = path_instance();
  const Realization truth = Realization::certain(instance);
  FaultConfig config;
  config.transient_rate = 1.0;  // every attempt errors
  FaultModel faults(config, 6);
  RetryingStrategy strategy(
      std::make_unique<ScriptedStrategy>(std::vector<NodeId>{0}),
      util::RetryPolicy::fixed(/*retries=*/2, /*every=*/1));
  util::Rng rng(1);
  const SimulationResult result =
      simulate(instance, truth, strategy, 10, rng, {.faults = &faults});
  // Attempt 0 faults, two retries fault, then the policy gives up.
  ASSERT_EQ(result.trace.size(), 3u);
  EXPECT_EQ(result.trace[0].attempt, 0u);
  EXPECT_EQ(result.trace[1].attempt, 1u);
  EXPECT_EQ(result.trace[2].attempt, 2u);
  for (const RequestRecord& r : result.trace) {
    EXPECT_EQ(r.target, 0u);
    EXPECT_EQ(r.fault, FaultKind::kTransient);
  }
  EXPECT_EQ(result.num_faulted, 3u);
  EXPECT_EQ(result.num_retries, 2u);
  EXPECT_EQ(result.num_abandoned, 1u);
}

TEST(RetryingStrategyTest, RetryRecoversBenefitUnderFaults) {
  // Statistical, not per-seed: with heavy drops, retrying must write off
  // far fewer targets than the fault-blind behaviour.
  const AccuInstance instance = tiny_instance(17);
  FaultConfig config;
  config.drop_rate = 0.4;
  util::RunningStat abandoned_bare, abandoned_retry;
  util::RunningStat benefit_bare, benefit_retry;
  for (std::uint64_t run = 0; run < 8; ++run) {
    util::Rng truth_rng(100 + run);
    const Realization truth = Realization::sample(instance, truth_rng);
    {
      AbmStrategy bare(0.5, 0.5);
      FaultModel faults(config, 500 + run);
      util::Rng rng(run);
      const SimulationResult r =
          simulate(instance, truth, bare, 60, rng, {.faults = &faults});
      abandoned_bare.add(r.num_abandoned);
      benefit_bare.add(r.total_benefit);
    }
    {
      RetryingStrategy retrying(std::make_unique<AbmStrategy>(0.5, 0.5),
                                util::RetryPolicy::exponential_jitter(4));
      FaultModel faults(config, 500 + run);
      util::Rng rng(run);
      const SimulationResult r =
          simulate(instance, truth, retrying, 60, rng, {.faults = &faults});
      abandoned_retry.add(r.num_abandoned);
      benefit_retry.add(r.total_benefit);
      EXPECT_GT(r.num_retries, 0u);
    }
  }
  EXPECT_LT(abandoned_retry.mean(), abandoned_bare.mean());
  EXPECT_GT(benefit_retry.mean(), benefit_bare.mean());
}

TEST(RetryingStrategyTest, NameReflectsPolicy) {
  RetryingStrategy s(std::make_unique<MaxDegreeStrategy>(),
                     util::RetryPolicy::fixed(3));
  EXPECT_EQ(s.name(), "MaxDegree+retry(fixed)");
}

// --- golden determinism ----------------------------------------------------

TEST(FaultedDeterminismTest, SameSeedSameFaultConfigSameTrace) {
  const AccuInstance instance = tiny_instance();
  util::Rng truth_rng(3);
  const Realization truth = Realization::sample(instance, truth_rng);
  const FaultConfig config = FaultConfig::uniform(0.3);
  auto run_once = [&]() {
    RetryingStrategy strategy(std::make_unique<AbmStrategy>(0.5, 0.5),
                              util::RetryPolicy::exponential_jitter(3));
    FaultModel faults(config, 11);
    util::Rng rng(8);
    return simulate(instance, truth, strategy, 50, rng, {.faults = &faults});
  };
  expect_identical(run_once(), run_once());
}

ExperimentConfig faulted_config() {
  ExperimentConfig config;
  config.budget = 25;
  config.samples = 2;
  config.runs = 2;
  config.seed = 19;
  config.faults = FaultConfig::uniform(0.25);
  config.retry = util::RetryPolicy::exponential_jitter(3);
  return config;
}

InstanceFactory tiny_factory() {
  return [](std::uint32_t sample, std::uint64_t seed) {
    util::Rng rng(seed + sample);
    datasets::DatasetConfig config;
    config.scale = 0.05;
    config.num_cautious = 8;
    return datasets::make_dataset("facebook", config, rng);
  };
}

std::vector<StrategyFactory> two_strategies() {
  return {
      {"ABM", [] { return std::make_unique<AbmStrategy>(0.5, 0.5); }},
      {"Random", [] { return std::make_unique<RandomStrategy>(); }},
  };
}

TEST(FaultedDeterminismTest, ThreadCountInvariance) {
  ExperimentConfig config = faulted_config();
  config.threads = 1;
  const ExperimentResult sequential =
      run_experiment(tiny_factory(), two_strategies(), config);
  config.threads = 4;
  const ExperimentResult parallel =
      run_experiment(tiny_factory(), two_strategies(), config);
  for (const char* name : {"ABM", "Random"}) {
    const TraceAggregator& a = sequential.by_name(name);
    const TraceAggregator& b = parallel.by_name(name);
    EXPECT_DOUBLE_EQ(a.total_benefit().mean(), b.total_benefit().mean());
    EXPECT_DOUBLE_EQ(a.faulted_requests().mean(),
                     b.faulted_requests().mean());
    EXPECT_DOUBLE_EQ(a.retries().mean(), b.retries().mean());
    EXPECT_DOUBLE_EQ(a.suspended_rounds().mean(),
                     b.suspended_rounds().mean());
    EXPECT_DOUBLE_EQ(a.abandoned_targets().mean(),
                     b.abandoned_targets().mean());
    for (std::size_t i = 0; i < config.budget; ++i) {
      EXPECT_DOUBLE_EQ(a.cumulative_benefit().at(i).mean(),
                       b.cumulative_benefit().at(i).mean());
    }
  }
}

TEST(FaultedDeterminismTest, ExperimentAccumulatesFaultStats) {
  const ExperimentResult result =
      run_experiment(tiny_factory(), two_strategies(), faulted_config());
  const TraceAggregator& abm = result.by_name("ABM");
  EXPECT_GT(abm.faulted_requests().mean(), 0.0);
  EXPECT_GT(abm.retries().mean(), 0.0);
  EXPECT_TRUE(result.failures.empty());
}

// --- worker exception capture ----------------------------------------------

class ThrowingStrategy final : public Strategy {
 public:
  NodeId select(const AttackerView&, util::Rng&) override {
    throw std::runtime_error("deliberate failure");
  }
  [[nodiscard]] std::string name() const override { return "Throwing"; }
};

TEST(RunExperimentTest, WorkerExceptionsAreCapturedPerCell) {
  ExperimentConfig config;
  config.budget = 10;
  config.samples = 2;
  config.runs = 3;
  config.seed = 23;
  const std::vector<StrategyFactory> strategies = {
      {"Throwing", [] { return std::make_unique<ThrowingStrategy>(); }},
  };
  const ExperimentResult result =
      run_experiment(tiny_factory(), strategies, config);
  EXPECT_EQ(result.failures.size(), 6u);  // every cell fails, none crashes
  for (const CellFailure& failure : result.failures) {
    EXPECT_NE(failure.error.find("deliberate failure"), std::string::npos);
  }
  EXPECT_EQ(result.by_name("Throwing").total_benefit().count(), 0u);
}

TEST(RunExperimentTest, InstanceFactoryFailureIsReportedPerSample) {
  ExperimentConfig config;
  config.budget = 10;
  config.samples = 2;
  config.runs = 2;
  config.seed = 29;
  const InstanceFactory factory = [](std::uint32_t sample, std::uint64_t seed)
      -> AccuInstance {
    if (sample == 1) throw std::runtime_error("no such dataset");
    util::Rng rng(seed);
    datasets::DatasetConfig dconfig;
    dconfig.scale = 0.05;
    dconfig.num_cautious = 8;
    return datasets::make_dataset("facebook", dconfig, rng);
  };
  const ExperimentResult result =
      run_experiment(factory, two_strategies(), config);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].sample, 1u);
  EXPECT_EQ(result.failures[0].run, CellFailure::kAllRuns);
  // Sample 0's cells still aggregated.
  EXPECT_EQ(result.by_name("ABM").total_benefit().count(), 2u);
}

}  // namespace
}  // namespace accu
