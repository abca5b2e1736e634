#include "core/observation.hpp"

namespace accu {

AttackerView::AttackerView(const AccuInstance& instance)
    : instance_(&instance),
      request_state_(instance.num_nodes(), RequestState::kUnknown),
      edge_state_(instance.graph().num_edges(), EdgeState::kUnknown),
      mutual_(instance.num_nodes(), 0) {}

void AttackerView::reset(const AccuInstance& instance) {
  instance_ = &instance;
  request_state_.assign(instance.num_nodes(), RequestState::kUnknown);
  edge_state_.assign(instance.graph().num_edges(), EdgeState::kUnknown);
  mutual_.assign(instance.num_nodes(), 0);
  friends_.clear();
  num_requests_ = 0;
  num_cautious_friends_ = 0;
  benefit_ = 0.0;
  feedback_ = FeedbackModel{};
  deferred_ = false;
  feedback_round_ = 0;
  pending_.clear();
  next_pending_ = 0;
  true_benefit_ = 0.0;
}

void AttackerView::arm_feedback(const FeedbackModel& model) {
  ACCU_ASSERT_MSG(num_requests_ == 0,
                  "arm_feedback must follow reset, before any request");
  feedback_ = model;
  deferred_ = !model.is_full();
  feedback_round_ = 0;
  pending_.clear();
  next_pending_ = 0;
  true_benefit_ = 0.0;
  if (deferred_) true_mutual_.assign(instance_->num_nodes(), 0);
}

void AttackerView::record_rejection(NodeId v) {
  ACCU_ASSERT_MSG(request_state(v) == RequestState::kUnknown,
                  "each user receives at most one request");
  request_state_[v] = RequestState::kRejected;
  ++num_requests_;
}

AttackerView::AcceptanceEffects AttackerView::record_acceptance(
    NodeId v, const Realization& truth) {
  AcceptanceEffects effects;
  record_acceptance(v, truth, effects);
  return effects;
}

void AttackerView::record_acceptance(NodeId v, const Realization& truth,
                                     AcceptanceEffects& effects) {
  ACCU_ASSERT_MSG(request_state(v) == RequestState::kUnknown,
                  "each user receives at most one request");
  if (deferred_) {
    record_acceptance_deferred(v, truth, effects);
    return;
  }
  const Graph& g = instance_->graph();
  effects.clear();
  effects.was_fof = is_fof(v);

  request_state_[v] = RequestState::kAccepted;
  friends_.push_back(v);
  ++num_requests_;
  if (instance_->is_cautious(v)) ++num_cautious_friends_;

  const BenefitModel& benefits = instance_->benefits();
  benefit_ += benefits.friend_benefit(v);
  if (effects.was_fof) benefit_ -= benefits.fof_benefit(v);

  // Reveal every incident potential edge of v.
  for (const graph::Neighbor& nb : g.neighbors(v)) {
    const bool present = truth.edge_present(nb.edge);
    const EdgeState observed = present ? EdgeState::kPresent
                                       : EdgeState::kAbsent;
    ACCU_ASSERT_MSG(edge_state_[nb.edge] == EdgeState::kUnknown ||
                        edge_state_[nb.edge] == observed,
                    "realization inconsistent with earlier observations");
    edge_state_[nb.edge] = observed;
    if (!present) continue;
    const NodeId w = nb.node;
    const bool entered_fof = mutual_[w] == 0 && !is_friend(w);
    ++mutual_[w];
    if (!is_friend(w)) effects.mutual_increased.push_back(w);
    if (entered_fof) {
      benefit_ += benefits.fof_benefit(w);
      effects.new_fof.push_back(w);
    }
  }
}

void AttackerView::record_acceptance_deferred(NodeId v,
                                              const Realization& truth,
                                              AcceptanceEffects& effects) {
  const Graph& g = instance_->graph();
  const BenefitModel& benefits = instance_->benefits();
  effects.clear();
  effects.was_fof = is_fof(v);  // observed FOF status only
  const bool true_was_fof = true_mutual_[v] > 0 && !is_friend(v);

  // Observed layer: the acceptance itself is platform-confirmed feedback
  // in every model, so the friend set and observed benefit update now; the
  // neighborhood stays dark until delivery (or forever, under myopic).
  request_state_[v] = RequestState::kAccepted;
  friends_.push_back(v);
  ++num_requests_;
  if (instance_->is_cautious(v)) ++num_cautious_friends_;
  benefit_ += benefits.friend_benefit(v);
  if (effects.was_fof) benefit_ -= benefits.fof_benefit(v);

  // True layer: the realized attack state advances immediately — cautious
  // users count their actual mutual friends regardless of what the
  // attacker has crawled.
  true_benefit_ += benefits.friend_benefit(v);
  if (true_was_fof) true_benefit_ -= benefits.fof_benefit(v);
  for (const graph::Neighbor& nb : g.neighbors(v)) {
    if (!truth.edge_present(nb.edge)) continue;
    const NodeId w = nb.node;
    const bool entered_fof = true_mutual_[w] == 0 && !is_friend(w);
    ++true_mutual_[w];
    if (entered_fof) true_benefit_ += benefits.fof_benefit(w);
  }

  // Myopic never reveals the neighborhood; delayed/batched queue it.
  if (feedback_.kind != FeedbackKind::kMyopic) {
    pending_.push_back({v, feedback_.due_round(feedback_round_)});
  }
}

NodeId AttackerView::deliver_next_revelation(const Realization& truth,
                                             AcceptanceEffects& effects) {
  ACCU_ASSERT_MSG(has_due_revelation(), "no revelation is due");
  const NodeId v = pending_[next_pending_].node;
  ++next_pending_;
  if (next_pending_ == pending_.size()) {
    pending_.clear();
    next_pending_ = 0;
  }

  // The exact reveal loop full feedback runs inline at acceptance time,
  // replayed late.  is_friend/mutual_ reads see the observed state as of
  // delivery, so interim acceptances are handled the same way a younger
  // acceptance handles an older friend's already-revealed edges.
  const Graph& g = instance_->graph();
  const BenefitModel& benefits = instance_->benefits();
  effects.clear();
  for (const graph::Neighbor& nb : g.neighbors(v)) {
    const bool present = truth.edge_present(nb.edge);
    const EdgeState observed = present ? EdgeState::kPresent
                                       : EdgeState::kAbsent;
    ACCU_ASSERT_MSG(edge_state_[nb.edge] == EdgeState::kUnknown ||
                        edge_state_[nb.edge] == observed,
                    "realization inconsistent with earlier observations");
    edge_state_[nb.edge] = observed;
    if (!present) continue;
    const NodeId w = nb.node;
    const bool entered_fof = mutual_[w] == 0 && !is_friend(w);
    ++mutual_[w];
    if (!is_friend(w)) effects.mutual_increased.push_back(w);
    if (entered_fof) {
      benefit_ += benefits.fof_benefit(w);
      effects.new_fof.push_back(w);
    }
  }
  return v;
}

double AttackerView::believed_mutual_friends(NodeId v) const {
  const Graph& g = instance_->graph();
  double expected = 0.0;
  for (const graph::Neighbor& nb : g.neighbors(v)) {
    if (!is_friend(nb.node)) continue;
    expected += edge_belief(nb.edge);
  }
  return expected;
}

std::size_t AttackerView::num_observed_edges() const noexcept {
  std::size_t observed = 0;
  for (const EdgeState state : edge_state_) {
    observed += (state != EdgeState::kUnknown);
  }
  return observed;
}

Graph observed_graph(const AttackerView& view) {
  const Graph& g = view.instance().graph();
  graph::GraphBuilder builder(g.num_nodes());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (view.edge_state(e) != EdgeState::kPresent) continue;
    const graph::EdgeEndpoints ep = g.endpoints(e);
    builder.append_edge(ep.lo, ep.hi, 1.0);  // prior edges are distinct
  }
  return builder.build();
}

double AttackerView::recompute_benefit() const {
  const BenefitModel& benefits = instance_->benefits();
  double total = 0.0;
  for (NodeId v = 0; v < instance_->num_nodes(); ++v) {
    if (is_friend(v)) {
      total += benefits.friend_benefit(v);
    } else if (is_fof(v)) {
      total += benefits.fof_benefit(v);
    }
  }
  return total;
}

}  // namespace accu
