// A complete ACCU problem instance (paper Definition 1).
//
// Bundles the probabilistic network G = (V, E, p), the user partition
// V = V_R ∪ V_C, the acceptance parameters (q_u for reckless users, θ_v for
// cautious users) and the benefit model, and validates the paper's standing
// assumptions at construction time:
//
//   * no edges among cautious users          (N(v) ∩ V_C = ∅ for v ∈ V_C);
//   * every cautious threshold is feasible   (|N(v) ∩ V_R| >= θ_v >= 1);
//   * probabilities are in range.
//
// The attacker s is implicit: it starts with no connections, so it is not a
// node of G; its friendships are tracked by AttackerView.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/benefit.hpp"
#include "core/types.hpp"

namespace accu {

class InstanceArtifacts;  // core/artifacts.hpp

/// Parameters of the *generalized* cautious acceptance model the paper
/// discusses in §III-B: a cautious user accepts with probability q1 while
/// below its threshold and q2 once the threshold is reached.  The default
/// (q1 = 0, q2 = 1) is the deterministic linear-threshold model of the
/// main text; any q1 > 0 bounds the adaptive total primal curvature by
/// δ = max q2/q1 and re-enables the curvature ratio of prior work.
struct GeneralizedCautiousParams {
  /// Per-node q1; entries for reckless users are ignored.
  std::vector<double> below;
  /// Per-node q2; entries for reckless users are ignored.
  std::vector<double> above;
};

class AccuInstance {
 public:
  /// `accept_prob[u]` is q_u (used when classes[u] is reckless; must still
  /// be in [0,1] everywhere).  `threshold[v]` is θ_v (used when classes[v]
  /// is cautious; ignored otherwise).
  AccuInstance(Graph graph, std::vector<UserClass> classes,
               std::vector<double> accept_prob,
               std::vector<std::uint32_t> threshold, BenefitModel benefits);

  /// As above, with the generalized cautious model.  Requires
  /// 0 <= q1 <= q2 <= 1 per cautious user.
  AccuInstance(Graph graph, std::vector<UserClass> classes,
               std::vector<double> accept_prob,
               std::vector<std::uint32_t> threshold, BenefitModel benefits,
               GeneralizedCautiousParams cautious_params);

  [[nodiscard]] const Graph& graph() const noexcept { return graph_; }
  [[nodiscard]] const BenefitModel& benefits() const noexcept {
    return benefits_;
  }

  [[nodiscard]] NodeId num_nodes() const noexcept {
    return graph_.num_nodes();
  }

  [[nodiscard]] UserClass user_class(NodeId u) const {
    ACCU_ASSERT(u < num_nodes());
    return classes_[u];
  }
  [[nodiscard]] bool is_cautious(NodeId u) const {
    return user_class(u) == UserClass::kCautious;
  }

  /// q_u — probability that reckless user u accepts a request.
  [[nodiscard]] double accept_prob(NodeId u) const {
    ACCU_ASSERT(u < num_nodes());
    return accept_prob_[u];
  }

  /// θ_v — mutual-friends threshold of cautious user v.
  [[nodiscard]] std::uint32_t threshold(NodeId v) const {
    ACCU_ASSERT(v < num_nodes());
    return threshold_[v];
  }

  [[nodiscard]] std::uint32_t num_cautious() const noexcept {
    return num_cautious_;
  }
  [[nodiscard]] std::uint32_t num_reckless() const noexcept {
    return num_nodes() - num_cautious_;
  }

  /// All cautious users, ascending ids.
  [[nodiscard]] const std::vector<NodeId>& cautious_users() const noexcept {
    return cautious_users_;
  }

  // --- generalized cautious model (§III-B) -------------------------------

  /// True when some cautious user deviates from the deterministic
  /// (q1 = 0, q2 = 1) threshold model.
  [[nodiscard]] bool has_generalized_cautious() const noexcept {
    return generalized_;
  }

  /// Acceptance probability of cautious user v given whether its mutual-
  /// friend count has reached θ_v (q2 when reached, q1 otherwise).
  [[nodiscard]] double cautious_accept_prob(NodeId v,
                                            bool threshold_reached) const {
    ACCU_ASSERT(is_cautious(v));
    return threshold_reached ? cautious_above_[v] : cautious_below_[v];
  }

  /// Process-unique identity of this instance's *contents*: assigned from a
  /// global counter at construction and carried along by copies/moves (which
  /// preserve the contents).  Lets caches keyed on an instance detect
  /// address reuse without hashing the data.
  [[nodiscard]] std::uint64_t uid() const noexcept { return uid_; }

  /// The lazily-filled cache of tables derived from this instance alone
  /// (core/artifacts.hpp).  Shared by every copy, like the uid; empty after
  /// construction, so building an instance pays for none of them.
  [[nodiscard]] InstanceArtifacts& artifacts() const noexcept {
    return *artifacts_;
  }

 private:
  void validate();

  [[nodiscard]] static std::uint64_t next_uid() noexcept;

  Graph graph_;
  std::vector<UserClass> classes_;
  std::vector<double> accept_prob_;
  std::vector<std::uint32_t> threshold_;
  BenefitModel benefits_;
  std::vector<NodeId> cautious_users_;
  std::uint32_t num_cautious_ = 0;
  // Per-node q1/q2 (meaningful for cautious users only; 0/1 by default).
  std::vector<double> cautious_below_;
  std::vector<double> cautious_above_;
  bool generalized_ = false;
  std::uint64_t uid_ = next_uid();
  std::shared_ptr<InstanceArtifacts> artifacts_;
};

}  // namespace accu
