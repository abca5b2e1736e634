// Batched adaptive crawling (extension; cf. the paper's reference [4],
// "Adaptive reconnaissance attacks with near-optimal parallel batching",
// ICDCS 2017).
//
// Instead of observing after every request, the attacker commits to a
// *batch* of b targets computed from the current knowledge, sends them all,
// and only then folds the outcomes in.  Larger batches finish an attack in
// ⌈k/b⌉ interaction rounds (much faster in the real world, where a friend
// request takes days to be answered) at the price of staler information —
// the trade-off the batching paper studies and `bench/ablation_batching`
// reproduces in the ACCU setting.
//
// The batch is chosen by ABM's potential function, so `batch_size = 1`
// reproduces the sequential ABM decision-for-decision (tested), and
// `batch_size >= k` degenerates to a fully non-adaptive plan.

#pragma once

#include <vector>

#include "core/score.hpp"
#include "core/simulator.hpp"
#include "core/types.hpp"

namespace accu {

class BatchedAbmStrategy final : public Strategy {
 public:
  /// Scores through the SoA batched-rescore kernel (score_batch), which
  /// score_test pins bit for bit against AbmStrategy's scalar potential.
  BatchedAbmStrategy(PotentialWeights weights, std::uint32_t batch_size);

  void reset(const AccuInstance& instance, util::Rng& rng) override;
  NodeId select(const AttackerView& view, util::Rng& rng) override;
  [[nodiscard]] bool wants_score_pack() const override { return true; }
  void adopt_task_pool(TaskPool* pool) override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] std::uint32_t batch_size() const noexcept {
    return batch_size_;
  }
  /// Interaction rounds used so far (batches started).
  [[nodiscard]] std::uint32_t rounds() const noexcept { return rounds_; }

 private:
  /// Scores every un-requested user against the *current* view and queues
  /// the top `batch_size_` of them.
  void fill_batch(const AttackerView& view);

  PotentialWeights weights_;
  std::uint32_t batch_size_;
  const AccuInstance* instance_ = nullptr;
  const ScorePack* pack_ = nullptr;  // the instance's shared pack; not owned
  std::vector<NodeId> batch_;  // pending targets, best first
  std::size_t cursor_ = 0;
  std::uint32_t rounds_ = 0;
  // Scoring scratch, pooled across fill_batch calls and resets.
  std::vector<std::pair<double, NodeId>> scored_;
  std::vector<double> scores_;
  ScoreBatchScratch batch_scratch_;
  // The engine-offered intra-cell pool; rescore chunks fan across it.
  // Chunking never changes a value, so decisions are pool-width-invariant.
  TaskPool* task_pool_ = nullptr;
  bool pool_fresh_ = false;
};

}  // namespace accu
