// One-step lookahead planning (extension).
//
// The adaptive greedy underlying ABM is myopic: it scores a request only by
// its own expected gain (plus ABM's heuristic threshold credit).  This
// policy approximates the *two-step* expectimax value instead:
//
//   V(u|ω) ≈ Δ(u|ω) + E_outcome [ max_v Δ(v | ω ∪ outcome(u)) ]
//
// evaluated for the `beam` strongest candidates by Δ; the expectation over
// u's outcome (acceptance coin + revealed incident edges) is estimated from
// `scenario_samples` Monte Carlo scenarios applied to a scratch copy of the
// attacker view.  With beam → n and samples → ∞ this converges to the true
// depth-2 expectimax; the defaults keep it polynomial but noticeably more
// expensive than ABM, which is the trade-off the ablation bench shows.
//
// The inner max uses the exact marginal Δ(v) = q(v)·P_D(v) (and optionally
// ABM's indirect credit), so with beam = 1 the policy degenerates to the
// classic greedy.

#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "core/score.hpp"
#include "core/simulator.hpp"

namespace accu {

class LookaheadStrategy final : public Strategy {
 public:
  struct Config {
    /// Candidates (by first-step marginal) receiving full lookahead.
    std::uint32_t beam = 8;
    /// Monte Carlo scenarios per candidate outcome expectation.
    std::uint32_t scenario_samples = 4;
    /// Weights for the step scores; the paper-faithful marginal is
    /// (direct = 1, indirect = 0), but ABM's threshold credit composes.
    PotentialWeights weights{1.0, 0.0};
  };

  LookaheadStrategy();
  explicit LookaheadStrategy(Config config);

  void reset(const AccuInstance& instance, util::Rng& rng) override;
  NodeId select(const AttackerView& view, util::Rng& rng) override;
  [[nodiscard]] bool wants_score_pack() const override { return true; }
  void adopt_task_pool(TaskPool* pool) override;
  [[nodiscard]] std::string name() const override;

 private:
  /// Private per-candidate branch scratch: slot c serves beam candidate c,
  /// so the pool's tasks write disjoint state.  Pooled across select calls
  /// — copy-assignment into the view/realization reuses their capacity.
  struct BranchScratch {
    std::optional<AttackerView> branch_view;
    util::BitVec scenario_edges;
    util::BitVec scenario_coins;
    std::optional<Realization> scenario;
    std::vector<double> scores;
    ScoreBatchScratch batch;
  };

  /// Best one-step score q(v)·(w_D·P_D + w_I·P_I) over all un-requested
  /// users of `view` (including the hypothetical branch views, where the
  /// SoA pack stays valid — the scoring invariant survives
  /// record_acceptance on a copy).
  [[nodiscard]] double best_step_score(const ScorePack& pack,
                                       const AttackerView& view,
                                       BranchScratch& s) const;

  /// The two-step value of candidate u: the rejection continuation plus the
  /// Monte Carlo acceptance continuation over `draws` (the candidate's
  /// pre-drawn scenario coins, one per unknown incident edge per sample).
  /// Pure function of its arguments and `s` — safe to fan across the pool.
  [[nodiscard]] double evaluate_candidate(const ScorePack& pack,
                                          const AttackerView& view, NodeId u,
                                          double first_step,
                                          const std::uint8_t* draws,
                                          BranchScratch& s) const;

  Config config_;
  const AccuInstance* instance_ = nullptr;
  const ScorePack* pack_ = nullptr;  // the instance's shared pack; not owned
  // Per-select scratch, pooled across calls and resets.
  std::vector<std::pair<double, NodeId>> ranked_;
  std::vector<double> scores_;
  ScoreBatchScratch batch_scratch_;
  std::vector<BranchScratch> branch_scratch_;  // one slot per beam candidate
  std::vector<double> values_;                 // per-candidate results
  std::vector<std::uint8_t> draws_;            // pre-drawn scenario coins
  std::vector<std::size_t> draw_offsets_;      // per-candidate draw spans
  // The engine-offered intra-cell pool; beam candidates fan across it.
  TaskPool* task_pool_ = nullptr;
  bool pool_fresh_ = false;
};

}  // namespace accu
