// The attacker's knowledge state — the paper's partial realization ω.
//
// Tracks, for every user, the request status (the paper's X_u ∈ {0,1,?})
// and, for every potential edge, the observation status (X_uv ∈ {0,1,?}).
// When a user accepts a request, all of their incident edges are revealed
// (paper §II-B: "the neighborhood of u will be available to s and is no
// longer probabilistic").
//
// From those observations the view maintains, exactly and incrementally:
//
//   * the friend set F (accepted users) and whether each node is currently
//     a friend-of-friend (has a *realized* edge to some friend);
//   * each node's realized mutual-friend count |N(v) ∩ N(s)| — fully known
//     to the attacker because friends' neighborhoods are revealed, which is
//     what makes cautious acceptance predictable ("any policy should know
//     that the request will be rejected before it was sent", §III-B);
//   * the running benefit of Eq. (1): Σ_{u∈F} B_f(u) + Σ_{v∈FOF} B_fof(v).
//
// The view never looks at unrevealed parts of the realization; the
// simulator is the only component holding both.
//
// Feedback models (DESIGN.md §15).  Under the paper's *full* feedback the
// reveal happens inline in record_acceptance — the status-quo code path,
// byte-for-byte.  arm_feedback() with a non-full FeedbackModel switches the
// view into *deferred* mode, which splits its state into two layers:
//
//   * the OBSERVED layer (request_state_/edge_state_/mutual_/benefit_) —
//     what the attacker legally knows.  Acceptances update it immediately
//     (the platform confirms the friendship) but neighborhood revelations
//     queue in pending_ and only land when the environment calls
//     deliver_next_revelation at a round boundary (never, for myopic).
//   * the TRUE layer (true_mutual_/true_benefit_) — the realized ground
//     truth of the attack, which the *platform* uses to resolve cautious
//     acceptance (a cautious user counts their real mutual friends, not
//     the attacker's stale picture) and which reports measure.  Exposed
//     through true_* accessors that fall back to the observed layer under
//     full feedback, where the two coincide.

#pragma once

#include <span>
#include <vector>

#include "core/feedback.hpp"
#include "core/instance.hpp"
#include "core/realization.hpp"
#include "core/types.hpp"

namespace accu {

class AttackerView {
 public:
  /// Starts with no requests sent: every node '?' and every edge '?'.
  /// Keeps a reference to `instance`; the instance must outlive the view.
  explicit AttackerView(const AccuInstance& instance);

  /// Re-arms the view for a new simulation over `instance`: every node and
  /// edge back to '?', reusing the flat arrays instead of reconstructing —
  /// allocation-free once the arrays have grown to the instance's shape.
  void reset(const AccuInstance& instance);

  /// What changed when a request was accepted; lets callers (the ABM
  /// policy's incremental potential maintenance, the simulator's trace)
  /// react without re-deriving the deltas.
  struct AcceptanceEffects {
    /// The accepted node was a friend-of-friend just before accepting.
    bool was_fof = false;
    /// Nodes that entered FOF because of this acceptance.
    std::vector<NodeId> new_fof;
    /// Nodes whose realized mutual-friend count increased (the accepted
    /// node's realized neighbors, excluding nodes that were already
    /// friends).  Superset of `new_fof`.
    std::vector<NodeId> mutual_increased;

    /// Back to the empty state, keeping vector capacity (pooled reuse).
    void clear() noexcept {
      was_fof = false;
      new_fof.clear();
      mutual_increased.clear();
    }
  };

  /// Records a rejected request; reveals nothing else (paper §II-B).
  void record_rejection(NodeId v);

  /// Records an accepted request and reveals v's incident edges from the
  /// ground-truth realization.
  AcceptanceEffects record_acceptance(NodeId v, const Realization& truth);

  /// Pooled variant: writes the effects into `out` (cleared first), so a
  /// reused scratch object makes the reveal path allocation-free.
  void record_acceptance(NodeId v, const Realization& truth,
                         AcceptanceEffects& out);

  // --- feedback model (deferred revelations) ------------------------------

  /// Switches the view's feedback model; call right after reset().  A full
  /// model (the default) keeps the status-quo inline reveal; a non-full
  /// model defers neighborhood revelations into the pending queue (see the
  /// header comment).  The pending queue is a pooled member, so re-arming
  /// across sweep cells stays allocation-free.
  void arm_feedback(const FeedbackModel& model);

  [[nodiscard]] const FeedbackModel& feedback() const noexcept {
    return feedback_;
  }
  /// True when revelations defer (non-full model armed).
  [[nodiscard]] bool deferred_feedback() const noexcept { return deferred_; }

  /// Advances the delivery clock; the environment calls this at each round
  /// boundary with its round counter before draining due revelations.
  void set_feedback_round(std::uint64_t round) noexcept {
    feedback_round_ = round;
  }

  /// A queued revelation has come due at the current feedback round.
  [[nodiscard]] bool has_due_revelation() const noexcept {
    return next_pending_ < pending_.size() &&
           pending_[next_pending_].due <= feedback_round_;
  }

  /// Delivers the oldest due revelation: reveals the accepted node's
  /// incident edge realization into the observed layer (the exact loop
  /// full feedback runs inline) and reports the observed-state deltas in
  /// `effects` (was_fof is not meaningful for a late revelation and stays
  /// false).  Returns the node whose neighborhood landed.
  NodeId deliver_next_revelation(const Realization& truth,
                                 AcceptanceEffects& effects);

  /// Revelations still queued (undelivered at the end of an attack when
  /// the budget runs out before their due round).
  [[nodiscard]] std::size_t pending_revelations() const noexcept {
    return pending_.size() - next_pending_;
  }

  // --- request / friendship state ---------------------------------------

  [[nodiscard]] RequestState request_state(NodeId v) const {
    ACCU_ASSERT(v < request_state_.size());
    return request_state_[v];
  }
  [[nodiscard]] bool is_requested(NodeId v) const {
    return request_state(v) != RequestState::kUnknown;
  }
  [[nodiscard]] bool is_friend(NodeId v) const {
    return request_state(v) == RequestState::kAccepted;
  }
  /// FOF per the paper: shares a realized edge with a friend and is not a
  /// friend itself.
  [[nodiscard]] bool is_fof(NodeId v) const {
    return mutual_friends(v) > 0 && !is_friend(v);
  }
  [[nodiscard]] const std::vector<NodeId>& friends() const noexcept {
    return friends_;
  }
  [[nodiscard]] std::uint32_t num_requests() const noexcept {
    return num_requests_;
  }
  [[nodiscard]] std::uint32_t num_cautious_friends() const noexcept {
    return num_cautious_friends_;
  }

  // --- observed structure -------------------------------------------------

  /// Realized |N(v) ∩ N(s)| — exact, because friends reveal their edges.
  [[nodiscard]] std::uint32_t mutual_friends(NodeId v) const {
    ACCU_ASSERT(v < mutual_.size());
    return mutual_[v];
  }

  [[nodiscard]] EdgeState edge_state(EdgeId e) const {
    ACCU_ASSERT(e < edge_state_.size());
    return edge_state_[e];
  }

  /// The attacker's current belief that edge e exists: the prior p_e when
  /// unobserved, else 0/1.  Header-inline: this sits inside the potential
  /// function's innermost loop.
  [[nodiscard]] ACCU_ALWAYS_INLINE double edge_belief(EdgeId e) const {
    const EdgeState state = edge_state(e);
    if (state == EdgeState::kUnknown) return instance_->graph().edge_prob(e);
    return state == EdgeState::kPresent ? 1.0 : 0.0;
  }

  /// Deterministic acceptance test for a cautious user under the current
  /// observations (θ_v reached).
  [[nodiscard]] ACCU_ALWAYS_INLINE bool cautious_would_accept(NodeId v) const {
    ACCU_ASSERT(instance_->is_cautious(v));
    return mutual_friends(v) >= instance_->threshold(v);
  }

  // --- true layer (platform-side ground truth; == observed under full) ----

  /// Realized |N(v) ∩ N(s)| counting *every* acceptance, delivered or not —
  /// what the cautious user v actually sees on their own friend list.
  [[nodiscard]] ACCU_ALWAYS_INLINE std::uint32_t true_mutual_friends(
      NodeId v) const {
    ACCU_ASSERT(v < mutual_.size());
    return deferred_ ? true_mutual_[v] : mutual_[v];
  }

  /// The platform's acceptance test for a cautious user: realized mutual
  /// count against θ_v.  Identical to cautious_would_accept under full
  /// feedback; under deferred feedback the attacker's observed test may
  /// lag this one — that lag is the adaptivity gap.
  [[nodiscard]] ACCU_ALWAYS_INLINE bool true_cautious_would_accept(
      NodeId v) const {
    ACCU_ASSERT(instance_->is_cautious(v));
    return true_mutual_friends(v) >= instance_->threshold(v);
  }

  /// Eq. (1) benefit of the realized attack state (what reports measure);
  /// == current_benefit() under full feedback.
  [[nodiscard]] double true_benefit() const noexcept {
    return deferred_ ? true_benefit_ : benefit_;
  }

  // --- believed layer (attacker-side estimates under partial feedback) ----

  /// The attacker's expected |N(v) ∩ N(s)| under the current observations:
  /// Σ over v's potential edges to friends of edge_belief.  Under full
  /// feedback every such edge is observed, so this equals mutual_friends
  /// exactly; under myopic feedback it is the prior-weighted estimate the
  /// attacker must plan with.
  [[nodiscard]] double believed_mutual_friends(NodeId v) const;

  // --- flat spans (the score engine's batched kernels read these) ---------

  /// Per-node request states, indexed by NodeId.
  [[nodiscard]] std::span<const RequestState> request_states() const noexcept {
    return request_state_;
  }
  /// Per-node realized mutual-friend counts, indexed by NodeId.
  [[nodiscard]] std::span<const std::uint32_t> mutual_counts() const noexcept {
    return mutual_;
  }
  /// Per-edge observation states, indexed by EdgeId.
  [[nodiscard]] std::span<const EdgeState> edge_states() const noexcept {
    return edge_state_;
  }

  // --- benefit ------------------------------------------------------------

  /// Eq. (1) benefit of the current state, maintained incrementally.
  [[nodiscard]] double current_benefit() const noexcept { return benefit_; }

  /// Recomputes Eq. (1) from scratch (O(V)); tests pin the incremental
  /// value to this.
  [[nodiscard]] double recompute_benefit() const;

  [[nodiscard]] const AccuInstance& instance() const noexcept {
    return *instance_;
  }

  /// Number of edges whose state the attacker has observed (present or
  /// absent).
  [[nodiscard]] std::size_t num_observed_edges() const noexcept;

 private:
  /// Acceptance bookkeeping under a non-full model: observed layer gets
  /// the acceptance only, true layer gets the realized neighborhood, the
  /// revelation queues (unless myopic).
  void record_acceptance_deferred(NodeId v, const Realization& truth,
                                  AcceptanceEffects& effects);

  /// One queued neighborhood revelation: the accepted node and the round
  /// at which it becomes visible.
  struct PendingRevelation {
    NodeId node = kInvalidNode;
    std::uint64_t due = 0;
  };

  const AccuInstance* instance_;
  std::vector<RequestState> request_state_;
  std::vector<EdgeState> edge_state_;
  std::vector<std::uint32_t> mutual_;
  std::vector<NodeId> friends_;
  std::uint32_t num_requests_ = 0;
  std::uint32_t num_cautious_friends_ = 0;
  double benefit_ = 0.0;

  // Deferred-feedback state; untouched (deferred_ == false) under full
  // feedback so the status-quo path carries no extra work.  All vectors are
  // pooled members — reset/arm reuse their capacity.
  FeedbackModel feedback_{};
  bool deferred_ = false;
  std::uint64_t feedback_round_ = 0;
  std::vector<PendingRevelation> pending_;
  std::size_t next_pending_ = 0;
  std::vector<std::uint32_t> true_mutual_;
  double true_benefit_ = 0.0;
};

/// The social network as the attacker currently *knows* it: exactly the
/// edges observed present, carried with probability 1; node ids preserved.
/// Useful for exporting/visualizing crawl progress (the information the
/// attack actually harvested).
[[nodiscard]] Graph observed_graph(const AttackerView& view);

}  // namespace accu
