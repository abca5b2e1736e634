#include "core/defense.hpp"

#include <algorithm>
#include <numeric>

#include "core/engine.hpp"
#include "core/strategies/abm.hpp"

namespace accu::defense {

std::vector<NodeId> VulnerabilityReport::most_vulnerable(
    std::size_t count) const {
  std::vector<std::size_t> order(cautious_users.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [this](std::size_t a, std::size_t b) {
                     return capture_probability[a] > capture_probability[b];
                   });
  std::vector<NodeId> out;
  out.reserve(std::min(count, order.size()));
  for (std::size_t i = 0; i < order.size() && out.size() < count; ++i) {
    out.push_back(cautious_users[order[i]]);
  }
  return out;
}

std::vector<NodeId> VulnerabilityReport::top_gateways(
    std::size_t count) const {
  std::vector<NodeId> order;
  for (NodeId v = 0; v < gateway_score.size(); ++v) {
    if (gateway_score[v] > 0.0) order.push_back(v);
  }
  std::stable_sort(order.begin(), order.end(), [this](NodeId a, NodeId b) {
    return gateway_score[a] > gateway_score[b];
  });
  if (order.size() > count) order.resize(count);
  return order;
}

VulnerabilityReport assess(const AccuInstance& instance,
                           const AttackModel& model) {
  VulnerabilityReport report;
  report.cautious_users = instance.cautious_users();
  report.capture_probability.assign(report.cautious_users.size(), 0.0);
  report.gateway_score.assign(instance.num_nodes(), 0.0);
  if (model.trials == 0) return report;

  util::Rng master(model.seed);
  util::RunningStat capture_rate;
  SimWorkspace ws;
  SimulationResult result;
  for (std::uint32_t trial = 0; trial < model.trials; ++trial) {
    util::Rng rng = master.split(trial + 1);
    const Realization& truth = ws.sample_truth(instance, rng);
    AbmStrategy attacker(model.weights.direct, model.weights.indirect);
    AttackerView& view = ws.reset_view(instance);
    util::Rng attack_rng = rng.split(7);
    simulate_into(instance, truth, attacker, model.budget, attack_rng, view,
                  ws, result);
    report.attacker_benefit.add(result.total_benefit);
    std::size_t captured = 0;
    for (std::size_t i = 0; i < report.cautious_users.size(); ++i) {
      const NodeId victim = report.cautious_users[i];
      if (!view.is_friend(victim)) continue;
      report.capture_probability[i] += 1.0;
      ++captured;
      // Gateways: the victim's realized friend-neighbors are the mutual
      // friends whose acceptance let the threshold fall.
      for (const graph::Neighbor& nb : instance.graph().neighbors(victim)) {
        if (view.edge_state(nb.edge) == EdgeState::kPresent &&
            view.is_friend(nb.node)) {
          report.gateway_score[nb.node] += 1.0;
        }
      }
    }
    capture_rate.add(report.cautious_users.empty()
                         ? 0.0
                         : static_cast<double>(captured) /
                               static_cast<double>(
                                   report.cautious_users.size()));
  }
  for (double& p : report.capture_probability) {
    p /= static_cast<double>(model.trials);
  }
  for (double& s : report.gateway_score) {
    s /= static_cast<double>(model.trials);
  }
  report.mean_capture_rate = capture_rate.mean();
  return report;
}

ThresholdRecommendation recommend_threshold(
    const ThresholdInstanceFactory& make_instance,
    const std::vector<double>& candidates, double target_protection,
    const AttackModel& model) {
  if (candidates.empty()) {
    throw InvalidArgument("recommend_threshold: need candidate fractions");
  }
  ACCU_ASSERT(std::is_sorted(candidates.begin(), candidates.end()));
  ThresholdRecommendation best;
  for (const double fraction : candidates) {
    const AccuInstance instance = make_instance(fraction, model.seed);
    const VulnerabilityReport report = assess(instance, model);
    const double protection = 1.0 - report.mean_capture_rate;
    if (!best.target_met &&
        (protection > best.protection_rate || best.theta_fraction == 0.0)) {
      best.theta_fraction = fraction;
      best.protection_rate = protection;
      best.attacker_benefit = report.attacker_benefit.mean();
    }
    if (protection >= target_protection) {
      best.theta_fraction = fraction;
      best.protection_rate = protection;
      best.attacker_benefit = report.attacker_benefit.mean();
      best.target_met = true;
      break;  // candidates are ascending: first hit is the cheapest
    }
  }
  return best;
}

}  // namespace accu::defense
