// Tests for the defender-side analysis: vulnerability assessment
// statistics, ranking, and threshold recommendation.

#include <gtest/gtest.h>

#include "core/defense.hpp"
#include "datasets/datasets.hpp"
#include "graph/generators.hpp"

namespace accu::defense {
namespace {

AccuInstance facebook_like(double theta_fraction, std::uint64_t seed) {
  util::Rng rng(seed);
  datasets::DatasetConfig config;
  config.scale = 0.08;  // ~320 nodes
  config.num_cautious = 15;
  config.threshold_fraction = theta_fraction;
  return datasets::make_dataset("facebook", config, rng);
}

TEST(AssessTest, ReportShapesAndRanges) {
  const AccuInstance instance = facebook_like(0.3, 11);
  AttackModel model;
  model.budget = 60;
  model.trials = 8;
  model.seed = 3;
  const VulnerabilityReport report = assess(instance, model);
  ASSERT_EQ(report.cautious_users.size(), instance.num_cautious());
  ASSERT_EQ(report.capture_probability.size(), report.cautious_users.size());
  for (const double p : report.capture_probability) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
  EXPECT_EQ(report.attacker_benefit.count(), 8u);
  EXPECT_GT(report.attacker_benefit.mean(), 0.0);
  EXPECT_GE(report.mean_capture_rate, 0.0);
  EXPECT_LE(report.mean_capture_rate, 1.0);
  // Aggregate consistency: mean capture rate = mean of per-user probs.
  double sum = 0.0;
  for (const double p : report.capture_probability) sum += p;
  EXPECT_NEAR(report.mean_capture_rate,
              sum / static_cast<double>(report.capture_probability.size()),
              1e-9);
}

TEST(AssessTest, DeterministicGivenSeed) {
  const AccuInstance instance = facebook_like(0.3, 12);
  AttackModel model;
  model.budget = 40;
  model.trials = 5;
  const VulnerabilityReport a = assess(instance, model);
  const VulnerabilityReport b = assess(instance, model);
  EXPECT_EQ(a.capture_probability, b.capture_probability);
  EXPECT_DOUBLE_EQ(a.attacker_benefit.mean(), b.attacker_benefit.mean());
}

TEST(AssessTest, MostVulnerableIsSortedByRisk) {
  const AccuInstance instance = facebook_like(0.2, 13);
  AttackModel model;
  model.budget = 80;
  model.trials = 6;
  const VulnerabilityReport report = assess(instance, model);
  const auto top = report.most_vulnerable(5);
  ASSERT_LE(top.size(), 5u);
  auto prob_of = [&](NodeId v) {
    for (std::size_t i = 0; i < report.cautious_users.size(); ++i) {
      if (report.cautious_users[i] == v) return report.capture_probability[i];
    }
    return -1.0;
  };
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(prob_of(top[i - 1]), prob_of(top[i]));
  }
}

TEST(AssessTest, GatewayScoresIdentifyThresholdEnablers) {
  const AccuInstance instance = facebook_like(0.2, 17);
  AttackModel model;
  model.budget = 100;
  model.trials = 8;
  const VulnerabilityReport report = assess(instance, model);
  ASSERT_EQ(report.gateway_score.size(), instance.num_nodes());
  double total = 0.0;
  for (NodeId v = 0; v < instance.num_nodes(); ++v) {
    EXPECT_GE(report.gateway_score[v], 0.0);
    // Only reckless users can be gateways (cautious users are pairwise
    // non-adjacent, so no cautious neighbor of a victim exists).
    if (instance.is_cautious(v)) {
      EXPECT_DOUBLE_EQ(report.gateway_score[v], 0.0);
    }
    total += report.gateway_score[v];
  }
  // Each captured victim contributes at least θ >= 1 gateway credits.
  const double expected_min_credits =
      report.mean_capture_rate * static_cast<double>(instance.num_cautious());
  EXPECT_GE(total + 1e-9, expected_min_credits);
  // top_gateways is sorted descending and omits zero scores.
  const auto top = report.top_gateways(10);
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(report.gateway_score[top[i - 1]],
              report.gateway_score[top[i]]);
  }
  for (const NodeId v : top) EXPECT_GT(report.gateway_score[v], 0.0);
}

TEST(AssessTest, ZeroTrialsIsEmptyButValid) {
  const AccuInstance instance = facebook_like(0.3, 14);
  AttackModel model;
  model.trials = 0;
  const VulnerabilityReport report = assess(instance, model);
  EXPECT_EQ(report.attacker_benefit.count(), 0u);
  EXPECT_DOUBLE_EQ(report.mean_capture_rate, 0.0);
}

TEST(AssessTest, HigherThresholdsProtectMore) {
  AttackModel model;
  model.budget = 80;
  model.trials = 6;
  const VulnerabilityReport lax = assess(facebook_like(0.1, 15), model);
  const VulnerabilityReport strict = assess(facebook_like(0.6, 15), model);
  EXPECT_GE(lax.mean_capture_rate, strict.mean_capture_rate);
}

TEST(RecommendThresholdTest, PicksCheapestMeetingTarget) {
  AttackModel model;
  model.budget = 60;
  model.trials = 5;
  model.seed = 21;
  const ThresholdInstanceFactory factory = [](double theta,
                                              std::uint64_t seed) {
    return facebook_like(theta, seed + 50);
  };
  const ThresholdRecommendation rec = recommend_threshold(
      factory, {0.1, 0.3, 0.6, 0.9}, /*target_protection=*/0.5, model);
  EXPECT_TRUE(rec.target_met);
  EXPECT_GE(rec.protection_rate, 0.5);
  EXPECT_GT(rec.theta_fraction, 0.0);
}

TEST(RecommendThresholdTest, ImpossibleTargetReportsBestEffort) {
  AttackModel model;
  model.budget = 60;
  model.trials = 4;
  const ThresholdInstanceFactory factory = [](double theta,
                                              std::uint64_t seed) {
    return facebook_like(theta, seed + 60);
  };
  const ThresholdRecommendation rec =
      recommend_threshold(factory, {0.1, 0.3}, /*target_protection=*/1.01,
                          model);
  EXPECT_FALSE(rec.target_met);
  EXPECT_GT(rec.theta_fraction, 0.0);
}

TEST(RecommendThresholdTest, RejectsEmptyCandidates) {
  AttackModel model;
  const ThresholdInstanceFactory factory = [](double, std::uint64_t) {
    return facebook_like(0.3, 1);
  };
  EXPECT_THROW((void)recommend_threshold(factory, {}, 0.5, model),
               InvalidArgument);
}

}  // namespace
}  // namespace accu::defense
