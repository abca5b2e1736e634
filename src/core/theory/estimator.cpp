#include "core/theory/estimator.hpp"

namespace accu {

double sampled_marginal_gain(const AttackerView& view, NodeId u,
                             std::size_t trials, util::Rng& rng) {
  ACCU_ASSERT(trials > 0);
  ACCU_ASSERT(!view.is_requested(u));
  const AccuInstance& instance = view.instance();
  const BenefitModel& benefits = instance.benefits();

  // Acceptance probability conditioned on the view (cautious acceptance
  // depends only on observed mutual counts; reckless coins are unobserved
  // for un-requested users).
  double accept_prob;
  if (instance.is_cautious(u)) {
    accept_prob =
        instance.cautious_accept_prob(u, view.cautious_would_accept(u));
  } else {
    accept_prob = instance.accept_prob(u);
  }

  // The non-random part of the accepted-case gain.
  double fixed_gain = benefits.friend_benefit(u);
  if (view.is_fof(u)) fixed_gain -= benefits.fof_benefit(u);

  double total = 0.0;
  for (std::size_t t = 0; t < trials; ++t) {
    if (!rng.bernoulli(accept_prob)) continue;
    double gain = fixed_gain;
    for (const graph::Neighbor& nb : instance.graph().neighbors(u)) {
      const NodeId v = nb.node;
      if (view.is_friend(v) || view.is_fof(v)) continue;
      switch (view.edge_state(nb.edge)) {
        case EdgeState::kPresent:
          gain += benefits.fof_benefit(v);
          break;
        case EdgeState::kAbsent:
          break;
        case EdgeState::kUnknown:
          if (rng.bernoulli(instance.graph().edge_prob(nb.edge))) {
            gain += benefits.fof_benefit(v);
          }
          break;
      }
    }
    total += gain;
  }
  return total / static_cast<double>(trials);
}

double sampled_policy_value(
    const AccuInstance& instance,
    const std::function<std::unique_ptr<Strategy>()>& make,
    std::uint32_t budget, std::size_t trials, util::Rng& rng) {
  return sampled_policy_value(instance, make, budget, trials, rng,
                              FeedbackModel{});
}

double sampled_policy_value(
    const AccuInstance& instance,
    const std::function<std::unique_ptr<Strategy>()>& make,
    std::uint32_t budget, std::size_t trials, util::Rng& rng,
    const FeedbackModel& feedback) {
  ACCU_ASSERT(trials > 0);
  double total = 0.0;
  for (std::size_t t = 0; t < trials; ++t) {
    const Realization truth = Realization::sample(instance, rng);
    const std::unique_ptr<Strategy> strategy = make();
    util::Rng policy_rng = rng.split(t + 1);
    total += simulate(instance, truth, *strategy, budget, policy_rng,
                      {.feedback = feedback})
                 .total_benefit;
  }
  return total / static_cast<double>(trials);
}

double empirical_adaptivity_gap(
    const AccuInstance& instance,
    const std::function<std::unique_ptr<Strategy>()>& make,
    std::uint32_t budget, std::size_t trials, util::Rng& rng,
    const FeedbackModel& feedback) {
  ACCU_ASSERT(trials > 0);
  double restricted = 0.0;
  double full = 0.0;
  for (std::size_t t = 0; t < trials; ++t) {
    // Common random numbers: both runs see the same realization and the
    // same policy seed stream, so only the feedback model differs.
    const Realization truth = Realization::sample(instance, rng);
    util::Rng restricted_rng = rng.split(2 * t + 1);
    util::Rng full_rng = restricted_rng;
    const std::unique_ptr<Strategy> under_feedback = make();
    restricted += simulate(instance, truth, *under_feedback, budget,
                           restricted_rng, {.feedback = feedback})
                      .total_benefit;
    const std::unique_ptr<Strategy> under_full = make();
    full += simulate(instance, truth, *under_full, budget, full_rng)
                .total_benefit;
  }
  if (full == 0.0) return 1.0;
  return restricted / full;
}

}  // namespace accu
