// Tests for the theory toolkit: the Fig. 1 non-submodularity witness, the
// curvature discussion of §III-B, set-benefit semantics, the submodularity
// ratios (brute force vs Lemma 4/5 closed forms), and Theorem 1's bound
// checked against the exact optimal adaptive policy.

#include <gtest/gtest.h>

#include <cmath>

#include "core/strategies/abm.hpp"
#include "core/theory/exact.hpp"
#include "core/theory/ratios.hpp"
#include "core/theory/set_benefit.hpp"
#include "graph/generators.hpp"

namespace accu {
namespace {

// ------------------------------------------------ Fig. 1 witness (§III-B) ----

/// The paper's two-user example: v0 = reckless with q = 1, v1 = cautious
/// with θ = 1, edge (v0,v1) certain, B_f(v1) > B_fof(v1) > 0.
AccuInstance fig1_instance() {
  graph::GraphBuilder b(2);
  b.add_edge(0, 1, 1.0);
  const std::vector<UserClass> classes = {UserClass::kReckless,
                                          UserClass::kCautious};
  return AccuInstance(b.build(), classes, {1.0, 0.0}, {1, 1},
                      BenefitModel({2.0, 5.0}, {1.0, 1.0}));
}

TEST(NonSubmodularityTest, Fig1WitnessViolatesAdaptiveSubmodularity) {
  const AccuInstance instance = fig1_instance();
  const auto worlds = enumerate_realizations(instance);
  ASSERT_EQ(worlds.size(), 1u);  // fully deterministic

  // ω1 = ∅: the cautious user rejects in every realization.
  AttackerView before(instance);
  const double delta_before = exact_marginal_gain(before, 1, worlds);
  EXPECT_DOUBLE_EQ(delta_before, 0.0);

  // ω2: v0 accepted, the edge (v0,v1) observed ⇒ Δ = B_f − B_fof.
  AttackerView after(instance);
  after.record_acceptance(0, worlds[0].first);
  const double delta_after = exact_marginal_gain(after, 1, worlds);
  EXPECT_DOUBLE_EQ(delta_after, 4.0);

  // Δ(v1|ω2) > Δ(v1|ω1) with ω1 ⊆ ω2: adaptive submodularity fails, and
  // the total primal curvature of this pair is unbounded.
  EXPECT_GT(delta_after, delta_before);
  EXPECT_TRUE(std::isinf(total_primal_curvature(delta_after, delta_before)));
}

TEST(CurvatureTest, PaperNumericExample) {
  // §III-B: δ = 10, k = 20 gives a ratio of ≈ 0.095.
  EXPECT_NEAR(curvature_ratio(10.0, 20), 0.095, 5e-4);
}

TEST(CurvatureTest, DegeneratesWithUnboundedDelta) {
  EXPECT_LT(curvature_ratio(1e9, 20), 1e-6);
  EXPECT_DOUBLE_EQ(total_primal_curvature(0.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(total_primal_curvature(2.0, 4.0), 0.5);
}

TEST(Theorem1RatioTest, ClosedForm) {
  EXPECT_NEAR(theorem1_ratio(1.0, 20, 20), 1.0 - std::exp(-1.0), 1e-12);
  EXPECT_NEAR(theorem1_ratio(0.5, 10, 20), 1.0 - std::exp(-0.25), 1e-12);
  EXPECT_DOUBLE_EQ(theorem1_ratio(0.0, 5, 5), 0.0);
}

// ------------------------------------------------------------ set benefit ----

AccuInstance path_instance() {
  // 0-1-2-3 path, node 2 cautious θ=2; benefits 3/1 uniform.
  graph::GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  std::vector<UserClass> classes(4, UserClass::kReckless);
  classes[2] = UserClass::kCautious;
  return AccuInstance(b.build(), classes, {1.0, 1.0, 0.0, 1.0}, {1, 1, 2, 1},
                      BenefitModel::uniform(4, 3.0, 1.0));
}

TEST(SetBenefitTest, HandComputedValues) {
  const AccuInstance instance = path_instance();
  const Realization truth = Realization::certain(instance);
  EXPECT_DOUBLE_EQ(set_benefit(instance, truth, {}), 0.0);
  // {1}: friend 1, FOF {0,2} ⇒ 3+1+1.
  EXPECT_DOUBLE_EQ(set_benefit(instance, truth, {1}), 5.0);
  // {2}: cautious alone rejects ⇒ 0.
  EXPECT_DOUBLE_EQ(set_benefit(instance, truth, {2}), 0.0);
  // {1,3}: friends 1,3; FOF {0,2} ⇒ 3+3+1+1.
  EXPECT_DOUBLE_EQ(set_benefit(instance, truth, {1, 3}), 8.0);
  // {1,2,3}: cautious 2 reaches θ=2 ⇒ friends {1,2,3}, FOF {0} ⇒ 9+1.
  EXPECT_DOUBLE_EQ(set_benefit(instance, truth, {1, 2, 3}), 10.0);
  // Mask interface agrees.
  EXPECT_DOUBLE_EQ(set_benefit_mask(instance, truth, 0b1110), 10.0);
}

TEST(SetBenefitTest, RejectingCoinsSuppressFriends) {
  const AccuInstance instance = path_instance();
  // Node 1's coin rejects.
  const Realization truth(std::vector<bool>(3, true),
                          {true, false, true, true});
  EXPECT_DOUBLE_EQ(set_benefit(instance, truth, {1}), 0.0);
  // {1,3}: only 3 befriended ⇒ 3 + FOF 2 ⇒ 4; cautious 2 would need θ=2
  // but has only one friend-neighbor.
  EXPECT_DOUBLE_EQ(set_benefit(instance, truth, {1, 2, 3}), 4.0);
}

TEST(SetBenefitTest, AbsentEdgesBlockCautiousAndFof) {
  const AccuInstance instance = path_instance();
  // Edge (1,2) absent.
  const Realization truth({true, false, true},
                          std::vector<bool>(4, true));
  // {1,3}: friends 1,3; FOF: 0 (via 1), 2 (via 3 only) ⇒ 3+3+1+1 = 8;
  // cautious 2 has mutual = 1 < 2 forever.
  EXPECT_DOUBLE_EQ(set_benefit(instance, truth, {1, 2, 3}), 8.0);
}

class SetBenefitPropertyTest : public testing::TestWithParam<std::uint64_t> {
};

TEST_P(SetBenefitPropertyTest, MonotoneInRequestSet) {
  util::Rng rng(GetParam());
  graph::GraphBuilder b = graph::erdos_renyi(10, 0.3, rng);
  b.assign_uniform_probs(rng);
  const Graph g = b.build();
  std::vector<UserClass> classes(10, UserClass::kReckless);
  std::vector<std::uint32_t> thresholds(10, 1);
  for (NodeId v = 0; v < 10; ++v) {
    if (g.degree(v) >= 2) {
      classes[v] = UserClass::kCautious;
      thresholds[v] = 2;
      break;
    }
  }
  std::vector<double> q(10);
  for (auto& x : q) x = rng.uniform();
  const AccuInstance instance(g, classes, q, thresholds,
                              BenefitModel::uniform(10, 2.0, 1.0));
  const Realization truth = Realization::sample(instance, rng);
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint64_t small = rng() & 0x3FF;
    const std::uint64_t big = small | (rng() & 0x3FF);
    EXPECT_LE(set_benefit_mask(instance, truth, small),
              set_benefit_mask(instance, truth, big) + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SetBenefitPropertyTest,
                         testing::Values(51u, 52u, 53u, 54u));

// ------------------------------------------------------------------ ratios ----

TEST(SubmodularRatioTest, NoCautiousUsersGivesOne) {
  // Observation 1: with V_C = ∅ the benefit function is submodular.
  util::Rng rng(61);
  graph::GraphBuilder b = graph::erdos_renyi(8, 0.35, rng);
  const AccuInstance instance(b.build(), std::vector<UserClass>(8),
                              std::vector<double>(8, 1.0),
                              std::vector<std::uint32_t>(8, 1),
                              BenefitModel::uniform(8, 2.0, 1.0));
  const Realization truth = Realization::certain(instance);
  EXPECT_DOUBLE_EQ(realization_submodular_ratio(instance, truth), 1.0);
}

TEST(SubmodularRatioTest, PositiveUnderStrictGap) {
  // Corollary 1: B_f − B_fof > 0 everywhere ⇒ λ > 0 (and cautious users
  // push it strictly below 1).
  const AccuInstance instance = path_instance();
  const Realization truth = Realization::certain(instance);
  const double lambda = realization_submodular_ratio(instance, truth);
  EXPECT_GT(lambda, 0.0);
  EXPECT_LT(lambda, 1.0);
}

TEST(SubmodularRatioTest, Lemma4DegreeOneClosedFormIsConservative) {
  // v_c (node 1, θ=1) hangs off node 0, which also has neighbor 2:
  // the paper's closed form gives B'(0)/(B_f(v_c)+B'(0)) = 1/6 with
  // B'(0) = B_f − B_fof = 1.  The true minimizing pair is S={2},
  // T={0, v_c} with ratio (B'(0) + B_fof(v_c)) / (B_f(v_c) + B'(0)) = 1/3 —
  // the lemma's numerator drops the B_fof(v_c) gain of v_c entering FOF,
  // so the closed form is a conservative (lower) estimate here.
  graph::GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  std::vector<UserClass> classes(3, UserClass::kReckless);
  classes[1] = UserClass::kCautious;
  const AccuInstance instance(b.build(), classes, {1.0, 0.0, 1.0}, {1, 1, 1},
                              BenefitModel({2.0, 5.0, 2.0}, {1.0, 1.0, 1.0}));
  const Realization truth = Realization::certain(instance);
  const double closed = lemma4_lambda(instance, truth);
  EXPECT_DOUBLE_EQ(closed, 1.0 / 6.0);  // the paper's arithmetic
  const double brute = realization_submodular_ratio(instance, truth);
  EXPECT_NEAR(brute, 1.0 / 3.0, 1e-12);  // hand-enumerated true minimum
  EXPECT_LE(closed, brute + 1e-12);
}

TEST(SubmodularRatioTest, Lemma4DegreeOneIsolatedNeighbor) {
  // When u has no other neighbor, B'(u) = B_f(u): closed form 2/7; the
  // brute-force minimum is (B_f(0)+B_fof(1))/(B_f(0)+B_f(1)) = 3/7 for the
  // same S=∅, T={0,1} pair (again the B_fof(v_c) term).
  graph::GraphBuilder b(2);
  b.add_edge(0, 1);
  std::vector<UserClass> classes = {UserClass::kReckless,
                                    UserClass::kCautious};
  const AccuInstance instance(b.build(), classes, {1.0, 0.0}, {1, 1},
                              BenefitModel({2.0, 5.0}, {1.0, 1.0}));
  const Realization truth = Realization::certain(instance);
  EXPECT_DOUBLE_EQ(lemma4_lambda(instance, truth), 2.0 / 7.0);
  EXPECT_NEAR(realization_submodular_ratio(instance, truth), 3.0 / 7.0,
              1e-12);
}

TEST(SubmodularRatioTest, Lemma4HigherDegreeTracksBruteForce) {
  // Star around cautious node 0 with θ = 2 and three reckless leaves that
  // are pairwise connected through extra reckless nodes.
  graph::GraphBuilder b(7);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  b.add_edge(0, 3);
  b.add_edge(1, 4);
  b.add_edge(2, 5);
  b.add_edge(3, 6);
  std::vector<UserClass> classes(7, UserClass::kReckless);
  classes[0] = UserClass::kCautious;
  const AccuInstance instance(
      b.build(), classes, {0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0},
      {2, 1, 1, 1, 1, 1, 1},
      BenefitModel::paper_default(classes, 2.0, 8.0, 1.0));
  const Realization truth = Realization::certain(instance);
  const double brute = realization_submodular_ratio(instance, truth);
  const double closed = lemma4_lambda(instance, truth);
  EXPECT_GT(brute, 0.0);
  // The lemma's closed form drops B_fof cross-terms from its candidate-pair
  // ratios, so it is an *estimate* of λ_φ rather than a one-sided bound
  // (it lands below the brute force on the degree-one instances above and
  // slightly above it here: 0.125 vs 1/9).  Pin it to a sanity band around
  // the exact value.
  EXPECT_GT(closed, 0.0);
  EXPECT_LE(closed, 1.0);
  EXPECT_GE(closed, 0.5 * brute);
  EXPECT_LE(closed, 2.0 * brute);
}

TEST(SubmodularRatioTest, IndependentCautiousComposition) {
  // Two cautious users (θ=1) with disjoint realized neighborhoods: the
  // paper's composition takes the minimum of the per-user Lemma 4 values.
  graph::GraphBuilder b(6);
  b.add_edge(0, 1);  // cautious 1 hangs off 0
  b.add_edge(0, 4);
  b.add_edge(2, 3);  // cautious 3 hangs off 2
  b.add_edge(2, 5);
  std::vector<UserClass> classes(6, UserClass::kReckless);
  classes[1] = classes[3] = UserClass::kCautious;
  const BenefitModel benefits({2.0, 5.0, 2.0, 9.0, 2.0, 2.0},
                              std::vector<double>(6, 1.0));
  const AccuInstance instance(b.build(), classes,
                              {1.0, 0.0, 1.0, 0.0, 1.0, 1.0},
                              {1, 1, 1, 1, 1, 1}, benefits);
  const Realization truth = Realization::certain(instance);
  // Per-user Lemma 4 (degree-one case, B'(u) = 1): 1/(5+1) and 1/(9+1).
  EXPECT_DOUBLE_EQ(independent_cautious_lambda(instance, truth), 0.1);
  // Brute force agrees on the ordering: the instance's true λ is driven by
  // the higher-benefit cautious user.
  const double brute = realization_submodular_ratio(instance, truth);
  EXPECT_GT(brute, 0.0);
  EXPECT_LT(brute, 1.0);
}

TEST(SubmodularRatioTest, IndependentCompositionRejectsSharedNeighbors) {
  // Both cautious users hang off the same reckless hub: the composition's
  // precondition fails and Lemma 5 is the right tool.
  graph::GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  std::vector<UserClass> classes = {UserClass::kReckless,
                                    UserClass::kCautious,
                                    UserClass::kCautious};
  const AccuInstance instance(b.build(), classes, {1.0, 0.0, 0.0}, {1, 1, 1},
                              BenefitModel({2.0, 5.0, 5.0}, {1.0, 1.0, 1.0}));
  const Realization truth = Realization::certain(instance);
  EXPECT_THROW((void)independent_cautious_lambda(instance, truth),
               InvalidArgument);
  EXPECT_GT(lemma5_upper_bound(instance, truth, 0), 0.0);
}

TEST(SubmodularRatioTest, IndependentCompositionNoCautiousIsOne) {
  graph::GraphBuilder b(3);
  b.add_edge(0, 1);
  const AccuInstance instance(b.build(), std::vector<UserClass>(3),
                              std::vector<double>(3, 1.0),
                              std::vector<std::uint32_t>(3, 1),
                              BenefitModel::uniform(3, 2.0, 1.0));
  EXPECT_DOUBLE_EQ(
      independent_cautious_lambda(instance, Realization::certain(instance)),
      1.0);
}

TEST(SubmodularRatioTest, Lemma5BoundHolds) {
  // One reckless hub (node 0) shared by two cautious users 1, 2 (θ = 2),
  // each with a second reckless friend.
  graph::GraphBuilder b(5);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  b.add_edge(1, 3);
  b.add_edge(2, 4);
  std::vector<UserClass> classes(5, UserClass::kReckless);
  classes[1] = classes[2] = UserClass::kCautious;
  const AccuInstance instance(
      b.build(), classes, {1.0, 0.0, 0.0, 1.0, 1.0}, {1, 2, 2, 1, 1},
      BenefitModel::paper_default(classes, 2.0, 10.0, 1.0));
  const Realization truth = Realization::certain(instance);
  const double bound = lemma5_upper_bound(instance, truth, 0);
  const double brute = realization_submodular_ratio(instance, truth);
  EXPECT_LE(brute, bound + 1e-12);
  // Hand value: B_f(0) / (Σ (B_f − B_fof) + B_f(0)) = 2 / (9+9+2) = 0.1.
  EXPECT_DOUBLE_EQ(bound, 0.1);
}

TEST(SubmodularRatioTest, AdaptiveRatioIsMinOverWorlds) {
  // Probabilistic edge turns the adaptive ratio into a minimum over worlds;
  // it can never exceed the certain world's ratio.
  graph::GraphBuilder b(3);
  b.add_edge(0, 1, 0.5);
  b.add_edge(0, 2, 1.0);
  std::vector<UserClass> classes(3, UserClass::kReckless);
  classes[1] = UserClass::kCautious;
  const AccuInstance instance(b.build(), classes, {1.0, 0.0, 1.0}, {1, 1, 1},
                              BenefitModel({2.0, 5.0, 2.0}, {1.0, 1.0, 1.0}));
  const double adaptive = adaptive_submodular_ratio(instance);
  const double certain = realization_submodular_ratio(
      instance, Realization::certain(instance));
  EXPECT_LE(adaptive, certain + 1e-12);
  EXPECT_GT(adaptive, 0.0);
}

// -------------------------------------------------- exact policies & bound ----

TEST(ExactPolicyTest, SingleRecklessNode) {
  graph::GraphBuilder b(1);
  const AccuInstance instance(b.build(), {UserClass::kReckless}, {0.5}, {1},
                              BenefitModel::uniform(1, 2.0, 1.0));
  const auto worlds = enumerate_realizations(instance);
  ASSERT_EQ(worlds.size(), 2u);
  const double value = exact_policy_value(
      instance, [] { return std::make_unique<AbmStrategy>(1.0, 0.0); }, 1,
      worlds);
  EXPECT_DOUBLE_EQ(value, 1.0);  // 0.5 · B_f
  EXPECT_DOUBLE_EQ(optimal_adaptive_value(instance, 1, worlds), 1.0);
}

TEST(ExactPolicyTest, OptimalMonotoneInBudget) {
  const AccuInstance instance = path_instance();
  const auto worlds = enumerate_realizations(instance);
  double previous = 0.0;
  for (std::uint32_t k = 0; k <= 4; ++k) {
    const double value = optimal_adaptive_value(instance, k, worlds);
    EXPECT_GE(value, previous - 1e-12);
    previous = value;
  }
  // Full budget on the deterministic path: befriend everyone ⇒ 4·3 = 12.
  EXPECT_DOUBLE_EQ(previous, 12.0);
}

TEST(ExactPolicyTest, NonAdaptiveOptimumOnDeterministicPath) {
  const AccuInstance instance = path_instance();
  const auto worlds = enumerate_realizations(instance);
  // Deterministic world: the best 2-set is {1,3} (benefit 8: two friends,
  // FOF 0 and 2); with k = 3 adding the cautious user 2 reaches θ ⇒ 10.
  EXPECT_DOUBLE_EQ(optimal_nonadaptive_value(instance, 2, worlds), 8.0);
  EXPECT_DOUBLE_EQ(optimal_nonadaptive_value(instance, 3, worlds), 10.0);
  EXPECT_DOUBLE_EQ(optimal_nonadaptive_value(instance, 0, worlds), 0.0);
  // Budget beyond n is clamped.
  EXPECT_DOUBLE_EQ(optimal_nonadaptive_value(instance, 9, worlds), 12.0);
}

TEST(ExactPolicyTest, AdaptivityGapOrdering) {
  // adaptive optimal >= non-adaptive optimal >= 0, and the adaptive greedy
  // sits in between the non-adaptive optimum is allowed to beat it or not —
  // only the optimal orderings are universal.
  util::Rng rng(77);
  graph::GraphBuilder b = graph::erdos_renyi(6, 0.4, rng);
  while (b.num_edges() < 4 || b.num_edges() > 7) {
    util::Rng retry(rng());
    b = graph::erdos_renyi(6, 0.4, retry);
  }
  b.assign_uniform_probs(rng);
  const Graph g = b.build();
  std::vector<double> q(6);
  for (auto& x : q) x = 0.3 + 0.5 * rng.uniform();
  const AccuInstance instance(g, std::vector<UserClass>(6), q,
                              std::vector<std::uint32_t>(6, 1),
                              BenefitModel::uniform(6, 2.0, 1.0));
  const auto worlds = enumerate_realizations(instance, 14);
  for (const std::uint32_t k : {1u, 2u, 3u}) {
    const double adaptive = optimal_adaptive_value(instance, k, worlds);
    const double nonadaptive =
        optimal_nonadaptive_value(instance, k, worlds);
    EXPECT_GE(adaptive + 1e-9, nonadaptive) << "k=" << k;
    EXPECT_GE(nonadaptive, 0.0);
  }
}

TEST(ExactPolicyTest, OptimalBeatsEveryFixedScript) {
  const AccuInstance instance = path_instance();
  const auto worlds = enumerate_realizations(instance);
  const double opt = optimal_adaptive_value(instance, 2, worlds);
  const double greedy = exact_policy_value(
      instance, [] { return std::make_unique<AbmStrategy>(1.0, 0.0); }, 2,
      worlds);
  EXPECT_GE(opt + 1e-12, greedy);
}

/// Theorem 1 on random enumerable instances: the exact adaptive greedy
/// achieves at least (1 − e^{−λ}) of the exact optimal adaptive value when
/// every user has a strict benefit gap.
class Theorem1Test : public testing::TestWithParam<std::uint64_t> {};

TEST_P(Theorem1Test, GreedyWithinBoundOfOptimal) {
  util::Rng rng(GetParam());
  graph::GraphBuilder b = graph::erdos_renyi(6, 0.4, rng);
  while (b.num_edges() < 3 || b.num_edges() > 8) {
    util::Rng retry(rng());
    b = graph::erdos_renyi(6, 0.4, retry);
  }
  const Graph g = b.build();
  std::vector<UserClass> classes(6, UserClass::kReckless);
  std::vector<std::uint32_t> thresholds(6, 1);
  for (NodeId v = 0; v < 6; ++v) {
    if (g.degree(v) >= 2) {
      classes[v] = UserClass::kCautious;
      thresholds[v] = 2;
      break;
    }
  }
  // Keep the world count small: two free coins, everything else certain.
  std::vector<double> q(6, 1.0);
  std::uint32_t free_coins = 0;
  for (NodeId v = 0; v < 6 && free_coins < 2; ++v) {
    if (classes[v] == UserClass::kReckless) {
      q[v] = 0.3 + 0.4 * rng.uniform();
      ++free_coins;
    }
  }
  for (NodeId v = 0; v < 6; ++v) {
    if (classes[v] == UserClass::kCautious) q[v] = 0.0;
  }
  const AccuInstance instance(g, classes, q, thresholds,
                              BenefitModel::paper_default(classes, 2.0, 9.0,
                                                          1.0));
  const auto worlds = enumerate_realizations(instance, 12);
  const double lambda = adaptive_submodular_ratio(instance, 12);
  ASSERT_GT(lambda, 0.0);  // Corollary 1 (strict gaps everywhere)

  for (const std::uint32_t k : {2u, 3u, 4u}) {
    const double opt = optimal_adaptive_value(instance, k, worlds);
    const double greedy = exact_policy_value(
        instance, [] { return std::make_unique<AbmStrategy>(1.0, 0.0); }, k,
        worlds);
    EXPECT_LE(greedy, opt + 1e-9);
    EXPECT_GE(greedy + 1e-9, theorem1_ratio(lambda, k, k) * opt)
        << "k=" << k << " lambda=" << lambda;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem1Test,
                         testing::Values(71u, 72u, 73u, 74u, 75u, 76u));

// Lemma 2 flavour: two different interleavings of the same request set give
// the same benefit when cautious users are requested only after their
// thresholds are met.
TEST(CommutativityTest, SensibleOrdersAgree) {
  const AccuInstance instance = path_instance();
  const Realization truth = Realization::certain(instance);
  // Orders: (1,3,2,0) and (3,0,1,2) both reach θ(2)=2 before requesting 2.
  EXPECT_DOUBLE_EQ(set_benefit(instance, truth, {1, 3, 2, 0}),
                   set_benefit(instance, truth, {3, 0, 1, 2}));
}

}  // namespace
}  // namespace accu
