// Tests for the clairvoyant oracle strategy, the Monte Carlo estimators,
// the observed-graph export, and the parallel experiment runner.

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/strategies/abm.hpp"
#include "core/strategies/baselines.hpp"
#include "core/strategies/oracle.hpp"
#include "core/theory/estimator.hpp"
#include "core/theory/exact.hpp"
#include "datasets/datasets.hpp"
#include "graph/generators.hpp"

namespace accu {
namespace {

AccuInstance random_instance(std::uint64_t seed, NodeId n = 50) {
  util::Rng rng(seed);
  graph::GraphBuilder b = graph::barabasi_albert(n, 3, rng);
  b.assign_uniform_probs(rng);
  const Graph g = b.build();
  std::vector<UserClass> classes(n, UserClass::kReckless);
  std::vector<std::uint32_t> thresholds(n, 1);
  std::vector<NodeId> cautious;
  for (NodeId v = 5; v < n && cautious.size() < 4; ++v) {
    if (g.degree(v) < 3) continue;
    bool adjacent = false;
    for (const NodeId c : cautious) adjacent |= g.has_edge(v, c);
    if (adjacent) continue;
    classes[v] = UserClass::kCautious;
    thresholds[v] = 2;
    cautious.push_back(v);
  }
  std::vector<double> q(n);
  for (auto& x : q) x = rng.uniform();
  return AccuInstance(g, classes, q, thresholds,
                      BenefitModel::paper_default(classes));
}

// ------------------------------------------------------------ oracle ----

TEST(ClairvoyantTest, NeverWastesARequest) {
  const AccuInstance instance = random_instance(1);
  util::Rng rng(2);
  const Realization truth = Realization::sample(instance, rng);
  ClairvoyantGreedyStrategy oracle(truth);
  util::Rng srng(3);
  const SimulationResult result =
      simulate(instance, truth, oracle, 20, srng);
  // As long as some accepting user remains, the oracle's pick accepts.
  for (const RequestRecord& r : result.trace) {
    if (r.marginal() > 0.0) {
      EXPECT_TRUE(r.accepted);
    }
  }
  EXPECT_GT(result.num_accepted, 0u);
}

TEST(ClairvoyantTest, DominatesAdaptivePoliciesPerRealization) {
  // Greedy-on-truth beats greedy-on-beliefs at every prefix in expectation;
  // check the totals across several paired runs.
  double oracle_total = 0.0, abm_total = 0.0;
  for (std::uint64_t seed = 10; seed < 16; ++seed) {
    const AccuInstance instance = random_instance(seed);
    util::Rng rng(seed * 7);
    const Realization truth = Realization::sample(instance, rng);
    ClairvoyantGreedyStrategy oracle(truth);
    AbmStrategy abm = make_classic_greedy();
    util::Rng r1(1), r2(1);
    oracle_total += simulate(instance, truth, oracle, 15, r1).total_benefit;
    abm_total += simulate(instance, truth, abm, 15, r2).total_benefit;
  }
  EXPECT_GE(oracle_total, abm_total);
}

TEST(ClairvoyantTest, RealizedGainMatchesSimulatedMarginal) {
  const AccuInstance instance = random_instance(20);
  util::Rng rng(21);
  const Realization truth = Realization::sample(instance, rng);
  ClairvoyantGreedyStrategy oracle(truth);
  util::Rng srng(22);
  const SimulationResult result = simulate(instance, truth, oracle, 10, srng);
  // Replay: each record's marginal equals realized_gain evaluated just
  // before the request.
  AttackerView replay(instance);
  oracle.reset(instance, srng);
  for (const RequestRecord& r : result.trace) {
    EXPECT_NEAR(oracle.realized_gain(replay, r.target), r.marginal(), 1e-9);
    if (r.accepted) {
      replay.record_acceptance(r.target, truth);
    } else {
      replay.record_rejection(r.target);
    }
  }
}

// --------------------------------------------------------- estimators ----

TEST(EstimatorTest, MarginalGainMatchesExactOnSmallInstance) {
  util::Rng rng(30);
  graph::GraphBuilder b = graph::erdos_renyi(7, 0.35, rng);
  while (b.num_edges() < 4 || b.num_edges() > 8) {
    util::Rng retry(rng());
    b = graph::erdos_renyi(7, 0.35, retry);
  }
  b.assign_uniform_probs(rng);
  const Graph g = b.build();
  std::vector<UserClass> classes(7, UserClass::kReckless);
  std::vector<std::uint32_t> thresholds(7, 1);
  std::vector<double> q(7, 1.0);
  q[1] = 0.5;
  q[2] = 0.25;
  const AccuInstance instance(g, classes, q, thresholds,
                              BenefitModel::uniform(7, 2.0, 1.0));
  const auto worlds = enumerate_realizations(instance, 12);
  AttackerView view(instance);
  util::Rng mc(31);
  for (NodeId u = 0; u < 4; ++u) {
    const double exact = exact_marginal_gain(view, u, worlds);
    const double sampled = sampled_marginal_gain(view, u, 40000, mc);
    EXPECT_NEAR(sampled, exact, 0.05 * (exact + 0.2)) << "node " << u;
  }
}

TEST(EstimatorTest, MarginalGainMatchesAbmSurrogateAtScale) {
  // Δ(u|ω) = q(u)·P_D(u) must hold on large instances too; the sampler is
  // the independent witness there.
  const AccuInstance instance = random_instance(40, 120);
  util::Rng rng(41);
  const Realization truth = Realization::sample(instance, rng);
  AttackerView view(instance);
  for (NodeId v = 0; v < 6; ++v) view.record_acceptance(v, truth);
  util::Rng mc(42);
  for (NodeId u = 10; u < 16; ++u) {
    if (view.is_requested(u)) continue;
    const double surrogate = AbmStrategy::effective_accept_prob(view, u) *
                             AbmStrategy::direct_gain(view, u);
    const double sampled = sampled_marginal_gain(view, u, 60000, mc);
    EXPECT_NEAR(sampled, surrogate, 0.05 * (surrogate + 0.2))
        << "node " << u;
  }
}

TEST(EstimatorTest, PolicyValueMatchesExactOnSmallInstance) {
  util::Rng rng(50);
  graph::GraphBuilder b(4);
  b.add_edge(0, 1, 0.5);
  b.add_edge(1, 2, 1.0);
  b.add_edge(2, 3, 0.5);
  const AccuInstance instance(b.build(), std::vector<UserClass>(4),
                              {0.5, 1.0, 0.5, 1.0},
                              std::vector<std::uint32_t>(4, 1),
                              BenefitModel::uniform(4, 2.0, 1.0));
  const auto worlds = enumerate_realizations(instance);
  const auto make = [] { return std::make_unique<AbmStrategy>(1.0, 0.0); };
  const double exact = exact_policy_value(instance, make, 2, worlds);
  util::Rng mc(51);
  const double sampled =
      sampled_policy_value(instance, make, 2, 30000, mc);
  EXPECT_NEAR(sampled, exact, 0.05 * exact);
}

// ------------------------------------------------------ observed graph ----

TEST(ObservedGraphTest, ContainsExactlyPresentObservedEdges) {
  const AccuInstance instance = random_instance(60);
  util::Rng rng(61);
  const Realization truth = Realization::sample(instance, rng);
  AttackerView view(instance);
  EXPECT_EQ(observed_graph(view).num_edges(), 0u);
  view.record_acceptance(0, truth);
  view.record_acceptance(1, truth);
  const Graph known = observed_graph(view);
  EXPECT_EQ(known.num_nodes(), instance.num_nodes());
  const Graph& g = instance.graph();
  std::size_t expected = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const bool present_known = view.edge_state(e) == EdgeState::kPresent;
    expected += present_known;
    const graph::EdgeEndpoints ep = g.endpoints(e);
    EXPECT_EQ(known.has_edge(ep.lo, ep.hi), present_known);
  }
  EXPECT_EQ(known.num_edges(), expected);
  EXPECT_EQ(view.num_observed_edges(),
            static_cast<std::size_t>(g.degree(0)) + g.degree(1) -
                (g.has_edge(0, 1) ? 1 : 0));
}

// ----------------------------------------------------- parallel runner ----

TEST(ParallelExperimentTest, ThreadCountDoesNotChangeResults) {
  const InstanceFactory factory = [](std::uint32_t sample,
                                     std::uint64_t seed) {
    util::Rng rng(seed + sample);
    datasets::DatasetConfig config;
    config.scale = 0.06;
    config.num_cautious = 10;
    return datasets::make_dataset("facebook", config, rng);
  };
  const std::vector<StrategyFactory> strategies = {
      {"ABM", [] { return std::make_unique<AbmStrategy>(0.5, 0.5); }},
      {"Random", [] { return std::make_unique<RandomStrategy>(); }},
  };
  ExperimentConfig config;
  config.budget = 15;
  config.samples = 2;
  config.runs = 4;
  config.seed = 99;
  config.threads = 1;
  const ExperimentResult sequential =
      run_experiment(factory, strategies, config);
  config.threads = 4;
  const ExperimentResult parallel =
      run_experiment(factory, strategies, config);
  for (const char* name : {"ABM", "Random"}) {
    EXPECT_DOUBLE_EQ(sequential.by_name(name).total_benefit().mean(),
                     parallel.by_name(name).total_benefit().mean());
    EXPECT_DOUBLE_EQ(sequential.by_name(name).total_benefit().max(),
                     parallel.by_name(name).total_benefit().max());
    for (std::size_t i = 0; i < config.budget; ++i) {
      EXPECT_DOUBLE_EQ(
          sequential.by_name(name).cumulative_benefit().at(i).mean(),
          parallel.by_name(name).cumulative_benefit().at(i).mean());
    }
  }
}

TEST(ParallelExperimentTest, HardwareThreadsOption) {
  const InstanceFactory factory = [](std::uint32_t, std::uint64_t seed) {
    util::Rng rng(seed);
    datasets::DatasetConfig config;
    config.scale = 0.05;
    config.num_cautious = 5;
    return datasets::make_dataset("facebook", config, rng);
  };
  const std::vector<StrategyFactory> strategies = {
      {"Random", [] { return std::make_unique<RandomStrategy>(); }}};
  ExperimentConfig config;
  config.budget = 10;
  config.samples = 1;
  config.runs = 2;
  config.threads = 0;  // auto
  const ExperimentResult result =
      run_experiment(factory, strategies, config);
  EXPECT_EQ(result.by_name("Random").total_benefit().count(), 2u);
}

}  // namespace
}  // namespace accu
