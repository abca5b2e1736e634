#include "core/strategies/baselines.hpp"

#include <algorithm>
#include <numeric>

#include "core/artifacts.hpp"
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

const std::vector<NodeId>& StaticOrderStrategy::order(
    const AccuInstance& instance) const {
  return instance.artifacts().get<std::vector<NodeId>>(
      {typeid(*this)}, [&] {
        const std::vector<double> score = scores(instance);
        ACCU_ASSERT(score.size() == instance.num_nodes());
        std::vector<NodeId> sorted(instance.num_nodes());
        std::iota(sorted.begin(), sorted.end(), NodeId{0});
        std::stable_sort(
            sorted.begin(), sorted.end(),
            [&](NodeId a, NodeId b) { return score[a] > score[b]; });
        return sorted;
      });
}

void StaticOrderStrategy::reset(const AccuInstance& instance,
                                util::Rng& rng) {
  (void)rng;
  // Drop the old instance's order first: a throwing scores() must not
  // leave a reference that outlives that instance.
  order_ = nullptr;
  cursor_ = 0;
  order_ = &order(instance);
}

NodeId StaticOrderStrategy::select(const AttackerView& view, util::Rng& rng) {
  (void)rng;
  ACCU_ASSERT_MSG(order_ != nullptr, "reset() must run before select()");
  const std::vector<NodeId>& nodes = *order_;
  while (cursor_ < nodes.size() && view.is_requested(nodes[cursor_])) {
    ++cursor_;
  }
  return cursor_ < nodes.size() ? nodes[cursor_++] : kInvalidNode;
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
