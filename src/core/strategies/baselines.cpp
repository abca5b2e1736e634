#include "core/strategies/baselines.hpp"

#include <algorithm>
#include <numeric>

#include "graph/pagerank.hpp"

namespace accu {

void RandomStrategy::reset(const AccuInstance& instance, util::Rng& rng) {
  order_.resize(instance.num_nodes());
  std::iota(order_.begin(), order_.end(), NodeId{0});
  rng.shuffle(order_);
  cursor_ = 0;
}

NodeId RandomStrategy::select(const AttackerView& view, util::Rng& rng) {
  (void)rng;  // all randomness was spent in reset()
  while (cursor_ < order_.size() && view.is_requested(order_[cursor_])) {
    ++cursor_;
  }
  return cursor_ < order_.size() ? order_[cursor_++] : kInvalidNode;
}

void StaticOrderStrategy::reset(const AccuInstance& instance,
                                util::Rng& rng) {
  (void)rng;
  cursor_ = 0;
  if (order_uid_ == instance.uid() && order_.size() == instance.num_nodes()) {
    return;
  }
  // Drop the key before touching order_: a throwing scores() must not leave
  // a half-built order that a later reset on the old instance would reuse.
  order_uid_ = 0;
  const std::vector<double> score = scores(instance);
  ACCU_ASSERT(score.size() == instance.num_nodes());
  order_.resize(instance.num_nodes());
  std::iota(order_.begin(), order_.end(), NodeId{0});
  std::stable_sort(order_.begin(), order_.end(),
                   [&](NodeId a, NodeId b) { return score[a] > score[b]; });
  order_uid_ = instance.uid();
}

NodeId StaticOrderStrategy::select(const AttackerView& view, util::Rng& rng) {
  (void)rng;
  while (cursor_ < order_.size() && view.is_requested(order_[cursor_])) {
    ++cursor_;
  }
  return cursor_ < order_.size() ? order_[cursor_++] : kInvalidNode;
}

std::vector<double> MaxDegreeStrategy::scores(
    const AccuInstance& instance) const {
  std::vector<double> score(instance.num_nodes());
  for (NodeId v = 0; v < instance.num_nodes(); ++v) {
    score[v] = instance.graph().expected_degree(v);
  }
  return score;
}

std::vector<double> PageRankStrategy::scores(
    const AccuInstance& instance) const {
  return graph::pagerank(instance.graph());
}

}  // namespace accu
