// Tests for the generalized cautious model (§III-B): q1/q2 validation,
// realization coins, simulator regime selection, ABM's acceptance
// weighting, the curvature δ, and exact reduction to the deterministic
// model at (q1, q2) = (0, 1).

#include <gtest/gtest.h>

#include <cmath>

#include "core/strategies/abm.hpp"
#include "core/theory/estimator.hpp"
#include "core/theory/ratios.hpp"
#include "datasets/datasets.hpp"
#include "graph/generators.hpp"

namespace accu {
namespace {

/// Path 0-1-2 with cautious node 1 (θ=2 is infeasible on a path end, so
/// use middle node with both neighbors reckless), q1/q2 configurable.
AccuInstance tiny_generalized(double q1, double q2) {
  graph::GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  std::vector<UserClass> classes = {UserClass::kReckless,
                                    UserClass::kCautious,
                                    UserClass::kReckless};
  GeneralizedCautiousParams params{{0.0, q1, 0.0}, {1.0, q2, 1.0}};
  return AccuInstance(b.build(), classes, {1.0, 0.0, 1.0}, {1, 2, 1},
                      BenefitModel::paper_default(classes, 2.0, 10.0, 1.0),
                      params);
}

TEST(GeneralizedModelTest, ValidationAndFlag) {
  EXPECT_FALSE(tiny_generalized(0.0, 1.0).has_generalized_cautious());
  EXPECT_TRUE(tiny_generalized(0.1, 0.9).has_generalized_cautious());
  EXPECT_TRUE(tiny_generalized(0.0, 0.9).has_generalized_cautious());
  EXPECT_THROW(tiny_generalized(0.5, 0.4), InvalidArgument);  // q1 > q2
  EXPECT_THROW(tiny_generalized(-0.1, 0.5), InvalidArgument);
  EXPECT_THROW(tiny_generalized(0.5, 1.5), InvalidArgument);
}

TEST(GeneralizedModelTest, AccessorReturnsRegimeProbability) {
  const AccuInstance instance = tiny_generalized(0.1, 0.8);
  EXPECT_DOUBLE_EQ(instance.cautious_accept_prob(1, false), 0.1);
  EXPECT_DOUBLE_EQ(instance.cautious_accept_prob(1, true), 0.8);
}

TEST(GeneralizedModelTest, RealizationCoinsMatchProbabilities) {
  const AccuInstance instance = tiny_generalized(0.25, 0.75);
  util::Rng rng(1);
  int below = 0, above = 0;
  const int trials = 40000;
  for (int i = 0; i < trials; ++i) {
    const Realization truth = Realization::sample(instance, rng);
    below += truth.cautious_below_accepts(1);
    above += truth.cautious_above_accepts(1);
  }
  EXPECT_NEAR(below / static_cast<double>(trials), 0.25, 0.01);
  EXPECT_NEAR(above / static_cast<double>(trials), 0.75, 0.01);
}

TEST(GeneralizedModelTest, DeterministicCoinsArePinned) {
  const AccuInstance instance = tiny_generalized(0.0, 1.0);
  util::Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    const Realization truth = Realization::sample(instance, rng);
    EXPECT_FALSE(truth.cautious_below_accepts(1));
    EXPECT_TRUE(truth.cautious_above_accepts(1));
  }
}

TEST(GeneralizedModelTest, RealizationProbabilityIncludesCautiousCoins) {
  const AccuInstance instance = tiny_generalized(0.25, 0.75);
  // All edges present, reckless accept; cautious below=true, above=false.
  const Realization truth({true, true}, {true, true, true},
                          {false, true, false}, {true, false, true});
  // Edges certain, reckless certain; cautious contributes 0.25 · 0.25.
  EXPECT_NEAR(truth.probability(instance), 0.0625, 1e-12);
}

TEST(GeneralizedModelTest, SimulatorConsultsActiveRegime) {
  const AccuInstance instance = tiny_generalized(1.0, 1.0);
  {
    // q1 = 1: a below-threshold request is *accepted* (unlike the
    // deterministic model).
    const Realization truth = Realization::certain(instance);
    class Script final : public Strategy {
     public:
      NodeId select(const AttackerView& view, util::Rng&) override {
        for (NodeId v : {NodeId{1}, NodeId{0}, NodeId{2}}) {
          if (!view.is_requested(v)) return v;
        }
        return kInvalidNode;
      }
      [[nodiscard]] std::string name() const override { return "Script"; }
    } script;
    util::Rng rng(3);
    const SimulationResult result =
        simulate(instance, truth, script, 1, rng);
    EXPECT_TRUE(result.trace[0].accepted);
    EXPECT_EQ(result.num_cautious_friends, 1u);
  }
  {
    // Below-coin false, above-coin true: rejected early, accepted late.
    const AccuInstance inst2 = tiny_generalized(0.5, 0.5);
    const Realization truth({true, true}, {true, true, true},
                            {false, false, false}, {true, true, true});
    class Script final : public Strategy {
     public:
      explicit Script(std::vector<NodeId> order) : order_(std::move(order)) {}
      NodeId select(const AttackerView& view, util::Rng&) override {
        while (cursor_ < order_.size() &&
               view.is_requested(order_[cursor_])) {
          ++cursor_;
        }
        return cursor_ < order_.size() ? order_[cursor_++] : kInvalidNode;
      }
      [[nodiscard]] std::string name() const override { return "Script"; }

     private:
      std::vector<NodeId> order_;
      std::size_t cursor_ = 0;
    };
    util::Rng rng(4);
    Script early({1});
    const SimulationResult r1 = simulate(inst2, truth, early, 1, rng);
    EXPECT_FALSE(r1.trace[0].accepted);  // below regime, coin false
    Script late({0, 2, 1});
    const SimulationResult r2 = simulate(inst2, truth, late, 3, rng);
    EXPECT_TRUE(r2.trace[2].accepted);  // θ=2 reached, above coin true
  }
}

TEST(GeneralizedModelTest, AbmUsesRegimeProbabilities) {
  const AccuInstance instance = tiny_generalized(0.2, 0.9);
  AttackerView view(instance);
  EXPECT_DOUBLE_EQ(AbmStrategy::effective_accept_prob(view, 1), 0.2);
  const Realization truth = Realization::certain(instance);
  view.record_acceptance(0, truth);
  view.record_acceptance(2, truth);
  EXPECT_EQ(view.mutual_friends(1), 2u);
  EXPECT_DOUBLE_EQ(AbmStrategy::effective_accept_prob(view, 1), 0.9);
}

TEST(GeneralizedModelTest, CurvatureDelta) {
  EXPECT_TRUE(std::isinf(
      generalized_curvature_delta(tiny_generalized(0.0, 1.0))));
  EXPECT_DOUBLE_EQ(
      generalized_curvature_delta(tiny_generalized(0.1, 1.0)), 10.0);
  EXPECT_DOUBLE_EQ(
      generalized_curvature_delta(tiny_generalized(0.5, 0.5)), 1.0);
  // δ = 10, k = 20 reproduces the paper's 0.095 curvature guarantee.
  EXPECT_NEAR(
      curvature_ratio(
          generalized_curvature_delta(tiny_generalized(0.1, 1.0)), 20),
      0.095, 5e-4);
}

TEST(GeneralizedModelTest, SampledMarginalUsesRegimeProbabilities) {
  // The Monte Carlo Δ estimator must weight a below-threshold cautious
  // candidate by q1, not by 0: Δ(v) ≈ q1·(B_f − 1_FOF·B_fof + FOF mass).
  const AccuInstance instance = tiny_generalized(0.4, 1.0);
  AttackerView view(instance);
  util::Rng mc(9);
  const double sampled = sampled_marginal_gain(view, 1, 60000, mc);
  // P_D(1) = B_f(1) + B_fof(0) + B_fof(2) = 10 + 1 + 1.
  EXPECT_NEAR(sampled, 0.4 * 12.0, 0.15);
}

TEST(GeneralizedModelTest, TheoryToolsRejectGeneralizedInstances) {
  const AccuInstance instance = tiny_generalized(0.3, 0.9);
  EXPECT_DEATH((void)realization_submodular_ratio(
                   instance, Realization::certain(instance)),
               "deterministic");
}

// The incremental ABM must stay exact under the generalized model: q(u)
// for a cautious user now changes value (q1 → q2) at the threshold
// crossing, and below-threshold acceptances reveal neighborhoods too.
class GeneralizedIncrementalTest
    : public testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneralizedIncrementalTest, IncrementalMatchesReference) {
  util::Rng rng(GetParam());
  graph::GraphBuilder b = graph::barabasi_albert(70, 3, rng);
  b.assign_uniform_probs(rng);
  const Graph g = b.build();
  std::vector<UserClass> classes(70, UserClass::kReckless);
  std::vector<std::uint32_t> thresholds(70, 1);
  GeneralizedCautiousParams params{std::vector<double>(70, 0.0),
                                   std::vector<double>(70, 1.0)};
  std::vector<NodeId> cautious;
  for (NodeId v = 8; v < 70 && cautious.size() < 6; ++v) {
    if (g.degree(v) < 3) continue;
    bool adjacent = false;
    for (const NodeId c : cautious) adjacent |= g.has_edge(v, c);
    if (adjacent) continue;
    classes[v] = UserClass::kCautious;
    thresholds[v] = 2;
    params.below[v] = 0.2;  // below-threshold gambles can pay off
    params.above[v] = 0.9;
    cautious.push_back(v);
  }
  std::vector<double> q(70);
  for (auto& x : q) x = rng.uniform();
  const AccuInstance instance(g, classes, q, thresholds,
                              BenefitModel::paper_default(classes), params);
  ASSERT_TRUE(instance.has_generalized_cautious());
  const Realization truth = Realization::sample(instance, rng);

  AbmStrategy::Config fast;
  fast.weights = {0.5, 0.5};
  AbmStrategy::Config slow = fast;
  slow.incremental = false;
  AbmStrategy a(fast), r(slow);
  util::Rng ra(1), rr(1);
  const SimulationResult fa = simulate(instance, truth, a, 35, ra);
  const SimulationResult fr = simulate(instance, truth, r, 35, rr);
  ASSERT_EQ(fa.trace.size(), fr.trace.size());
  for (std::size_t i = 0; i < fa.trace.size(); ++i) {
    ASSERT_EQ(fa.trace[i].target, fr.trace[i].target) << "request " << i;
    ASSERT_EQ(fa.trace[i].accepted, fr.trace[i].accepted);
  }
  EXPECT_DOUBLE_EQ(fa.total_benefit, fr.total_benefit);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneralizedIncrementalTest,
                         testing::Values(201u, 202u, 203u, 204u));

TEST(GeneralizedModelTest, DatasetFactorySupportsGeneralizedModel) {
  util::Rng rng(5);
  datasets::DatasetConfig config;
  config.scale = 0.08;
  config.num_cautious = 10;
  config.cautious_below_prob = 0.1;
  config.cautious_above_prob = 0.9;
  const AccuInstance instance =
      datasets::make_dataset("facebook", config, rng);
  EXPECT_TRUE(instance.has_generalized_cautious());
  for (const NodeId v : instance.cautious_users()) {
    EXPECT_DOUBLE_EQ(instance.cautious_accept_prob(v, false), 0.1);
    EXPECT_DOUBLE_EQ(instance.cautious_accept_prob(v, true), 0.9);
  }
  EXPECT_DOUBLE_EQ(generalized_curvature_delta(instance), 9.0);
}

}  // namespace
}  // namespace accu
