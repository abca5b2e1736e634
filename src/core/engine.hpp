// The round engine — the one implementation of the paper's policy-execution
// loop (Algorithm 1's outer loop), shared by every simulation mode.
//
// Golovin & Krause's adaptive-submodularity framework (the paper's
// theoretical backbone) describes all of our simulators as the same
// process: a policy repeatedly extends a partial realization ω by selecting
// an item and observing its outcome.  What differs between the reliable,
// faulted, temporal, and multi-bot simulations is only the *environment*:
// how budget is counted, what happens between rounds, and how a request
// resolves.  `run_rounds` owns the loop once; an environment policy
// supplies the hooks:
//
//     while (env.has_budget()) {
//       begin_round()   — advance clocks, poll cancellation; may stop
//       select()        — ask the policy for a target (kInvalidNode = pass)
//       on_pass()       — a pass/wait round; may stop the attack
//       begin_request() — open the trace record, spend budget, draw faults;
//                         returns false when the request never reached the
//                         platform (the faulted path)
//       resolve()       — the accept/reject coin against the hidden truth
//       settle()        — reveal + observe + trace (the one reveal path)
//       faulted()       — fault feedback, abandonment, suspension stalls
//     }
//     env.finish()      — fold totals into the result
//
// The environments (`ReliableEnv`, `FaultyEnv`, `TemporalEnv`,
// `MultiBotEnv`) are written so the generated code is step-for-step — and
// therefore trace-byte-for-byte and RNG-draw-for-draw — identical to the
// four hand-written loops they replaced; tests/engine_test.cpp pins each
// one against a reference copy of the old loop.
//
// `SimWorkspace` is the engine's companion: it pools every allocation a
// simulation needs (the AttackerView's flat arrays, the acceptance-effects
// scratch, the ground-truth realization, fault retry counters) so a sweep
// that runs millions of cells performs O(1) allocations per cell instead
// of O(V+E) — see DESIGN.md §10 for the reuse rules.  Its state is mutable
// per-simulation scratch, one workspace per worker; read-only tables that
// depend on the instance alone (the score pack, the resample draw plan,
// static orders, ABM seed heaps) are not pooled here but built once in the
// instance's artifact cache (core/artifacts.hpp) and shared by all workers.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/faults.hpp"
#include "core/multibot/multibot.hpp"
#include "core/observation.hpp"
#include "core/realization.hpp"
#include "core/score.hpp"
#include "core/simulator.hpp"
#include "core/task_pool.hpp"
#include "core/temporal/temporal.hpp"
#include "core/types.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

namespace accu {

/// Reusable per-worker simulation scratch.  One workspace serves any number
/// of sequential simulations over instances of any shape; its buffers grow
/// to the largest instance seen and are then reused allocation-free.
/// Not thread-safe: one workspace per worker thread.
class SimWorkspace {
 public:
  SimWorkspace() = default;

  /// An AttackerView over `instance` with no requests sent, reusing the
  /// workspace's flat arrays.  Invalidates the view of any earlier call.
  [[nodiscard]] AttackerView& reset_view(const AccuInstance& instance);

  /// Samples a ground-truth realization into pooled storage (draw-for-draw
  /// identical to Realization::sample).  Invalidates earlier references.
  [[nodiscard]] const Realization& sample_truth(const AccuInstance& instance,
                                                util::Rng& rng);

  /// Configures the width of the intra-cell task pool offered to strategies
  /// (total concurrency including the simulating thread; default 1 =
  /// sequential).  Changing the width tears the pool down and respawns it
  /// on next use, so call this once per sweep, not per cell.
  void set_cell_threads(unsigned threads);

  /// The workspace's task pool, spawned lazily at the configured width and
  /// parked between cells.  Width 1 pools run inline on the caller.
  [[nodiscard]] TaskPool& task_pool();

  /// Acceptance-effects scratch shared by the engine's reveal path.
  AttackerView::AcceptanceEffects effects;
  /// Per-target prior faulted attempts (FaultyEnv's retry accounting).
  std::vector<std::uint32_t> fault_attempts;

 private:
  std::optional<AttackerView> view_;
  std::optional<Realization> truth_;
  unsigned cell_threads_ = 1;
  std::optional<TaskPool> task_pool_;
};

/// The one single-bot entry point: runs `strategy` like `simulate`
/// (simulator.hpp), but writes into a caller-owned result and draws all
/// scratch from `ws` — the allocation-free path the experiment harness
/// uses.  `view` is typically `ws.reset_view(...)`; any fresh view over
/// `instance` works, and it holds the attacker's final knowledge on return.
/// A non-null `options.faults` selects the faulted environment.
void simulate_into(const AccuInstance& instance, const Realization& truth,
                   Strategy& strategy, std::uint32_t budget, util::Rng& rng,
                   AttackerView& view, SimWorkspace& ws, SimulationResult& out,
                   const SimOptions& options = {});

namespace engine {

/// Environment verdict for the hooks that can end the attack early.
enum class RoundStep : std::uint8_t { kContinue, kStop };

/// The single round loop.  See the header comment for the hook contract.
template <class Env>
void run_rounds(Env& env) {
  while (env.has_budget()) {
    if (env.begin_round() == RoundStep::kStop) break;
    const NodeId target = env.select();
    if (target == kInvalidNode) {
      if (env.on_pass() == RoundStep::kStop) break;
      continue;
    }
    if (env.begin_request(target)) {
      env.settle(target, env.resolve(target));
    } else {
      env.faulted(target);
    }
  }
  env.finish();
}

/// Resolves whether `target` accepts a delivered request under the hidden
/// ground truth — the one acceptance rule, shared by every environment.
/// Cautious users follow the threshold model: the pre-drawn coin of the
/// active regime decides (q1 below θ, q2 at/above; the deterministic model
/// is (q1, q2) = (0, 1)).  Reckless users follow their acceptance coin.
/// The threshold test is the *platform's*: a cautious user counts their
/// realized mutual friends (`true_cautious_would_accept`), which equals the
/// attacker's observed test under full feedback but may run ahead of it
/// under a deferred FeedbackModel.
template <class View, class Truth>
[[nodiscard]] bool resolve_acceptance(const AccuInstance& instance,
                                      const Truth& truth, const View& view,
                                      NodeId target) {
  if (instance.is_cautious(target)) {
    const bool reached = view.true_cautious_would_accept(target);
    return reached ? truth.cautious_above_accepts(target)
                   : truth.cautious_below_accepts(target);
  }
  return truth.reckless_accepts(target);
}

/// Shared single-bot state + the one reveal/observe/trace path (`settle`).
class SingleBotEnvBase {
 public:
  SingleBotEnvBase(const AccuInstance& instance, const Realization& truth,
                   Strategy& strategy, std::uint32_t budget, util::Rng& rng,
                   AttackerView& view, SimWorkspace& ws, SimulationResult& out,
                   const util::CancelToken* cancel)
      : instance_(instance),
        truth_(truth),
        strategy_(strategy),
        budget_(budget),
        rng_(rng),
        view_(view),
        ws_(ws),
        out_(out),
        cancel_(cancel) {}

  [[nodiscard]] NodeId select() { return strategy_.select(view_, rng_); }
  /// A single-bot strategy returning kInvalidNode stops the attack.
  [[nodiscard]] RoundStep on_pass() const { return RoundStep::kStop; }

  [[nodiscard]] bool resolve(NodeId target) const {
    return resolve_acceptance(instance_, truth_, view_, target);
  }

  void settle(NodeId target, bool accepted) {
    record_.accepted = accepted;
    if (accepted) {
      view_.record_acceptance(target, truth_, ws_.effects);
      record_.benefit_after = view_.true_benefit();
      strategy_.observe(target, true, view_, &ws_.effects);
    } else {
      view_.record_rejection(target);
      record_.benefit_after = view_.true_benefit();
      strategy_.observe(target, false, view_, nullptr);
    }
    out_.trace.push_back(record_);
  }

  void finish() {
    out_.total_benefit = view_.true_benefit();
    out_.num_accepted = static_cast<std::uint32_t>(view_.friends().size());
    out_.num_cautious_friends = view_.num_cautious_friends();
    out_.friends = view_.friends();
  }

 protected:
  void check_cancel() const {
    if (cancel_ != nullptr) cancel_->check();
  }

  /// Drains every revelation due at `round` into the observed layer and
  /// notifies the strategy per delivery.  No-op under full feedback (the
  /// reveal happened inline in settle).  The environments call this from
  /// begin_round with their own clock, so "d rounds later" means the same
  /// thing budget means in that environment.
  void deliver_feedback(std::uint64_t round) {
    if (!view_.deferred_feedback()) return;
    view_.set_feedback_round(round);
    while (view_.has_due_revelation()) {
      const NodeId source = view_.deliver_next_revelation(truth_, ws_.effects);
      strategy_.observe_revelation(source, view_, ws_.effects);
    }
  }

  /// Validates the selection and opens this round's trace record.  Trace
  /// benefits measure the realized attack state (true_benefit ==
  /// current_benefit under full feedback), so the reported curves stay
  /// comparable across feedback models.
  void open_record(NodeId target) {
    ACCU_ASSERT_MSG(target < instance_.num_nodes(),
                    "strategy selected an out-of-range node");
    ACCU_ASSERT_MSG(!view_.is_requested(target),
                    "strategy re-selected an already-requested node");
    record_ = RequestRecord{};
    record_.target = target;
    record_.cautious_target = instance_.is_cautious(target);
    record_.benefit_before = view_.true_benefit();
  }

  const AccuInstance& instance_;
  const Realization& truth_;
  Strategy& strategy_;
  const std::uint32_t budget_;
  util::Rng& rng_;
  AttackerView& view_;
  SimWorkspace& ws_;
  SimulationResult& out_;
  const util::CancelToken* cancel_;
  RequestRecord record_{};
};

/// The paper's reliable platform: budget counts delivered requests, every
/// request reaches the platform.
class ReliableEnv final : public SingleBotEnvBase {
 public:
  using SingleBotEnvBase::SingleBotEnvBase;

  [[nodiscard]] bool has_budget() const {
    return view_.num_requests() < budget_;
  }
  [[nodiscard]] RoundStep begin_round() {
    check_cancel();
    deliver_feedback(view_.num_requests());  // round clock = requests sent
    return RoundStep::kContinue;
  }
  [[nodiscard]] bool begin_request(NodeId target) {
    open_record(target);
    return true;  // always delivered
  }
  void faulted(NodeId /*target*/) {}  // unreachable: delivery never fails
};

/// The unreliable platform (DESIGN.md §8): budget counts *rounds* —
/// delivered requests, faulted requests, and suspension stalls alike — and
/// each attempt may fault per the FaultModel's own RNG stream.
class FaultyEnv final : public SingleBotEnvBase {
 public:
  FaultyEnv(const AccuInstance& instance, const Realization& truth,
            Strategy& strategy, std::uint32_t budget, util::Rng& rng,
            FaultModel& faults, AttackerView& view, SimWorkspace& ws,
            SimulationResult& out, const util::CancelToken* cancel)
      : SingleBotEnvBase(instance, truth, strategy, budget, rng, view, ws, out,
                         cancel),
        faults_(faults),
        observer_(strategy.as_fault_observer()) {
    ws.fault_attempts.assign(instance.num_nodes(), 0);
  }

  [[nodiscard]] bool has_budget() const { return rounds_ < budget_; }
  [[nodiscard]] RoundStep begin_round() {
    check_cancel();
    deliver_feedback(rounds_);  // round clock = budget rounds consumed
    return RoundStep::kContinue;
  }

  [[nodiscard]] bool begin_request(NodeId target) {
    open_record(target);
    record_.attempt = ws_.fault_attempts[target];
    if (record_.attempt > 0) ++out_.num_retries;
    ++rounds_;
    fault_ = faults_.next();
    return fault_ == FaultKind::kNone;
  }

  void faulted(NodeId target) {
    // The platform never processed the request: the attacker learns nothing
    // about the target; only the fault-aware feedback and the spent round
    // remain.
    ++out_.num_faulted;
    ++ws_.fault_attempts[target];
    record_.fault = fault_;
    record_.benefit_after = record_.benefit_before;

    FaultFeedback feedback = FaultFeedback::kNoResponse;
    if (fault_ == FaultKind::kTransient) {
      feedback = FaultFeedback::kTransientError;
    } else if (fault_ == FaultKind::kRateLimit) {
      feedback = FaultFeedback::kRateLimited;
    }
    const FaultResponse response =
        observer_ != nullptr ? observer_->observe_fault(target, feedback, view_)
                             : FaultResponse::kAbandon;
    if (response == FaultResponse::kAbandon) {
      // Write-off: for the attacker's knowledge this is exactly a rejection
      // (no reveal, target never pursued again).
      view_.record_rejection(target);
      strategy_.observe(target, false, view_, nullptr);
      ++out_.num_abandoned;
    }
    out_.trace.push_back(record_);

    if (fault_ == FaultKind::kRateLimit) {
      // Suspension: the next `w` rounds are lost, budget keeps ticking.
      // Stall rounds stay in the trace (explicit zero marginals) so
      // per-round curve indices remain aligned across runs.
      const std::uint32_t w = faults_.config().suspension_rounds;
      for (std::uint32_t i = 0; i < w && rounds_ < budget_; ++i) {
        RequestRecord stall;
        stall.fault = FaultKind::kSuspensionStall;
        stall.benefit_before = view_.true_benefit();
        stall.benefit_after = stall.benefit_before;
        out_.trace.push_back(stall);
        ++rounds_;
        ++out_.rounds_suspended;
      }
    }
  }

 private:
  FaultModel& faults_;
  FaultObserver* observer_;
  FaultKind fault_ = FaultKind::kNone;
  std::uint32_t rounds_ = 0;  // every round consumes budget
};

/// The growing network (temporal extension): one request opportunity per
/// round, arrivals activate between rounds, kInvalidNode means *wait* (the
/// round is spent, the request is kept).
class TemporalEnv final {
 public:
  TemporalEnv(const AccuInstance& instance, const Realization& truth,
              TemporalStrategy& strategy, std::uint32_t rounds,
              std::uint32_t budget, util::Rng& rng, TemporalView& view,
              TemporalResult& out)
      : instance_(instance),
        truth_(truth),
        strategy_(strategy),
        rounds_(rounds),
        budget_(budget),
        rng_(rng),
        view_(view),
        out_(out) {}

  [[nodiscard]] bool has_budget() const { return round_ < rounds_; }

  [[nodiscard]] RoundStep begin_round() {
    view_.advance_to(round_);
    if (view_.num_requests() >= budget_) return RoundStep::kStop;
    record_ = TemporalRequestRecord{};
    record_.round = round_;
    return RoundStep::kContinue;
  }

  [[nodiscard]] NodeId select() { return strategy_.select(view_, rng_); }

  [[nodiscard]] RoundStep on_pass() {
    record_.benefit_after = view_.current_benefit();
    out_.trace.push_back(record_);  // waited this round
    ++round_;
    return RoundStep::kContinue;
  }

  [[nodiscard]] bool begin_request(NodeId target) {
    ACCU_ASSERT_MSG(view_.is_active(target) && !view_.is_requested(target),
                    "temporal strategy selected an illegal target");
    record_.target = target;
    record_.cautious_target = instance_.is_cautious(target);
    return true;  // the temporal model has no fault layer
  }

  [[nodiscard]] bool resolve(NodeId target) const {
    return resolve_acceptance(instance_, truth_, view_, target);
  }

  void settle(NodeId target, bool accepted) {
    record_.accepted = accepted;
    if (accepted) {
      view_.record_acceptance(target);
    } else {
      view_.record_rejection(target);
    }
    record_.benefit_after = view_.current_benefit();
    out_.trace.push_back(record_);
    ++round_;
  }

  void faulted(NodeId /*target*/) {}  // unreachable

  void finish() {
    out_.total_benefit = view_.current_benefit();
    out_.num_cautious_friends = view_.num_cautious_friends();
    out_.requests_sent = view_.num_requests();
  }

 private:
  const AccuInstance& instance_;
  const Realization& truth_;
  TemporalStrategy& strategy_;
  const std::uint32_t rounds_;
  const std::uint32_t budget_;
  util::Rng& rng_;
  TemporalView& view_;
  TemporalResult& out_;
  std::uint32_t round_ = 0;
  TemporalRequestRecord record_{};
};

/// Per-bot facades over the coalition state so `resolve_acceptance` covers
/// the multi-bot environment too.  The multi-bot machinery is restricted to
/// the deterministic cautious model, so the regime coins are the constants
/// (q1, q2) = (0, 1): reached-threshold accepts, below rejects.
struct BotScopedView {
  const MultiBotView& view;
  BotId bot;
  [[nodiscard]] bool cautious_would_accept(NodeId v) const {
    return view.cautious_would_accept(bot, v);
  }
  /// Multi-bot runs are full-feedback only (simulate_multibot rejects a
  /// non-full model), so the true and observed tests coincide.
  [[nodiscard]] bool true_cautious_would_accept(NodeId v) const {
    return cautious_would_accept(v);
  }
};
struct BotScopedTruth {
  const MultiBotRealization& truth;
  BotId bot;
  [[nodiscard]] bool reckless_accepts(NodeId u) const {
    return truth.reckless_accepts(bot, u);
  }
  [[nodiscard]] bool cautious_below_accepts(NodeId /*v*/) const {
    return false;
  }
  [[nodiscard]] bool cautious_above_accepts(NodeId /*v*/) const {
    return true;
  }
};

/// The round-robin coalition adapter: flattens "each round, every bot sends
/// one request" into engine rounds (one bot turn each).  A full round in
/// which every bot passed stops the attack; `rounds` counts interaction
/// rounds, including a final partial one in which some bot sent.
class MultiBotEnv final {
 public:
  MultiBotEnv(const AccuInstance& instance, const MultiBotRealization& truth,
              MultiBotStrategy& strategy, std::uint32_t budget, BotId num_bots,
              util::Rng& rng, MultiBotView& view, MultiBotResult& out)
      : instance_(instance),
        truth_(truth),
        strategy_(strategy),
        budget_(budget),
        num_bots_(num_bots),
        rng_(rng),
        view_(view),
        out_(out) {}

  [[nodiscard]] bool has_budget() const {
    return view_.num_requests() < budget_;
  }

  [[nodiscard]] RoundStep begin_round() {
    if (bot_ == num_bots_) {  // the previous interaction round completed
      if (!any_sent_) return RoundStep::kStop;  // every bot passed
      ++out_.rounds;
      bot_ = 0;
      any_sent_ = false;
    }
    return RoundStep::kContinue;
  }

  [[nodiscard]] NodeId select() { return strategy_.select(bot_, view_, rng_); }

  [[nodiscard]] RoundStep on_pass() {
    ++bot_;  // this bot passes its turn; the round continues
    return RoundStep::kContinue;
  }

  [[nodiscard]] bool begin_request(NodeId target) {
    ACCU_ASSERT_MSG(target < instance_.num_nodes(),
                    "strategy selected an out-of-range node");
    ACCU_ASSERT_MSG(!view_.is_requested_by(bot_, target),
                    "strategy re-selected a node already requested by this "
                    "bot");
    any_sent_ = true;
    record_ = MultiBotRequestRecord{};
    record_.bot = bot_;
    record_.target = target;
    record_.cautious_target = instance_.is_cautious(target);
    record_.benefit_before = view_.current_benefit();
    return true;  // the multi-bot model has no fault layer
  }

  [[nodiscard]] bool resolve(NodeId target) const {
    return resolve_acceptance(instance_, BotScopedTruth{truth_, bot_},
                              BotScopedView{view_, bot_}, target);
  }

  void settle(NodeId target, bool accepted) {
    record_.accepted = accepted;
    if (accepted) {
      view_.record_acceptance(bot_, target, truth_.edges());
    } else {
      view_.record_rejection(bot_, target);
    }
    record_.benefit_after = view_.current_benefit();
    out_.trace.push_back(record_);
    ++bot_;
  }

  void faulted(NodeId /*target*/) {}  // unreachable

  void finish() {
    // Budget ran out (or every bot stopped) mid-round: a round in which
    // some bot sent still counts as an interaction round.
    if (any_sent_) ++out_.rounds;
    out_.total_benefit = view_.current_benefit();
    out_.num_cautious_friends = view_.num_cautious_friends();
    out_.coalition_friends = view_.coalition_friends();
  }

 private:
  const AccuInstance& instance_;
  const MultiBotRealization& truth_;
  MultiBotStrategy& strategy_;
  const std::uint32_t budget_;
  const BotId num_bots_;
  util::Rng& rng_;
  MultiBotView& view_;
  MultiBotResult& out_;
  BotId bot_ = 0;
  bool any_sent_ = false;
  MultiBotRequestRecord record_{};
};

}  // namespace engine
}  // namespace accu
