#include "core/engine.hpp"

namespace accu {

AttackerView& SimWorkspace::reset_view(const AccuInstance& instance) {
  if (!view_.has_value()) {
    view_.emplace(instance);
  } else {
    view_->reset(instance);
  }
  return *view_;
}

const Realization& SimWorkspace::sample_truth(const AccuInstance& instance,
                                              util::Rng& rng) {
  if (!truth_.has_value()) {
    truth_ = Realization::sample(instance, rng);
  } else {
    truth_->resample(instance, rng);
  }
  return *truth_;
}

void SimWorkspace::set_cell_threads(unsigned threads) {
  const unsigned width = threads == 0 ? 1 : threads;
  if (width == cell_threads_) return;
  cell_threads_ = width;
  task_pool_.reset();  // respawned at the new width on next use
}

TaskPool& SimWorkspace::task_pool() {
  if (!task_pool_.has_value()) task_pool_.emplace(cell_threads_);
  return *task_pool_;
}

namespace {

/// Hands the instance's shared score pack to strategies that score through
/// the flat kernels; runs immediately before Strategy::reset.
void offer_score_pack(const AccuInstance& instance, Strategy& strategy) {
  if (strategy.wants_score_pack()) {
    strategy.adopt_score_pack(ScorePack::of(instance));
  }
}

/// Hands the workspace-pooled task pool to strategies with parallel inner
/// loops; like the pack offer, valid only for the simulation that follows.
void offer_task_pool(Strategy& strategy, SimWorkspace& ws) {
  strategy.adopt_task_pool(&ws.task_pool());
}

}  // namespace

void simulate_into(const AccuInstance& instance, const Realization& truth,
                   Strategy& strategy, std::uint32_t budget, util::Rng& rng,
                   AttackerView& view, SimWorkspace& ws, SimulationResult& out,
                   const SimOptions& options) {
  ACCU_ASSERT(truth.num_edges() == instance.graph().num_edges());
  ACCU_ASSERT(truth.num_nodes() == instance.num_nodes());
  out.clear();
  out.trace.reserve(budget);
  view.arm_feedback(options.feedback);
  offer_score_pack(instance, strategy);
  offer_task_pool(strategy, ws);
  strategy.reset(instance, rng);
  if (options.faults != nullptr) {
    engine::FaultyEnv env(instance, truth, strategy, budget, rng,
                          *options.faults, view, ws, out, options.cancel);
    engine::run_rounds(env);
  } else {
    engine::ReliableEnv env(instance, truth, strategy, budget, rng, view, ws,
                            out, options.cancel);
    engine::run_rounds(env);
  }
}

SimulationResult simulate(const AccuInstance& instance,
                          const Realization& truth, Strategy& strategy,
                          std::uint32_t budget, util::Rng& rng,
                          const SimOptions& options) {
  SimWorkspace ws;
  SimulationResult result;
  simulate_into(instance, truth, strategy, budget, rng, ws.reset_view(instance),
                ws, result, options);
  return result;
}

}  // namespace accu
