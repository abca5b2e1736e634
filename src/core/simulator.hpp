// The adaptive attack simulator (paper §II-B / Algorithm 1's outer loop).
//
// A Strategy repeatedly picks the next user to befriend from the attacker's
// current knowledge; the simulator resolves acceptance against the hidden
// ground-truth realization —
//
//   * reckless u accepts iff its realization coin came up accept,
//   * cautious v accepts iff the *realized* mutual-friend count has
//     reached θ_v (deterministic, §II-A) —
//
// then reveals the accepted user's neighborhood to the view and records a
// per-request trace entry.  The trace carries everything Figures 2-7 of the
// paper aggregate: cumulative benefit, per-request marginal, the target's
// class, and the acceptance outcome.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/faults.hpp"
#include "core/feedback.hpp"
#include "core/instance.hpp"
#include "core/observation.hpp"
#include "core/realization.hpp"
#include "core/types.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

namespace accu {

class ScorePack;  // core/score.hpp
class TaskPool;   // core/task_pool.hpp

/// One simulated round: a friend request, or (under the fault layer) a
/// round lost to a rate-limit suspension (`fault == kSuspensionStall`,
/// `target == kInvalidNode`).  Stall rounds stay in the trace so request
/// index i always means "round i" — curves from faulted and pristine runs
/// aggregate index-aligned.
struct RequestRecord {
  NodeId target = kInvalidNode;
  bool accepted = false;
  /// Whether the target is a cautious user (drives Fig. 3/5 splits).
  bool cautious_target = false;
  /// Eq.-(1) benefit after this request; the marginal gain is
  /// `benefit_after - benefit_before`.
  double benefit_before = 0.0;
  double benefit_after = 0.0;
  /// Platform fault injected on this round (kNone on a reliable platform).
  FaultKind fault = FaultKind::kNone;
  /// How many earlier attempts at this same target faulted (0 = first try).
  std::uint32_t attempt = 0;

  [[nodiscard]] double marginal() const noexcept {
    return benefit_after - benefit_before;
  }
};

/// Outcome of one simulated attack.
struct SimulationResult {
  std::vector<RequestRecord> trace;
  double total_benefit = 0.0;
  std::uint32_t num_accepted = 0;
  std::uint32_t num_cautious_friends = 0;
  std::vector<NodeId> friends;
  // --- robustness accounting (all zero on a reliable platform) ----------
  /// Requests that hit a fault (drop/timeout/transient/rate-limit).
  std::uint32_t num_faulted = 0;
  /// Attempts that re-requested a previously faulted target.
  std::uint32_t num_retries = 0;
  /// Rounds lost to rate-limit suspensions (budget kept ticking).
  std::uint32_t rounds_suspended = 0;
  /// Faulted targets written off as rejected (retries exhausted, or the
  /// strategy is not fault-aware).
  std::uint32_t num_abandoned = 0;

  /// Back to the default-constructed state, keeping vector capacity so a
  /// result object can be reused across simulations allocation-free.
  void clear() noexcept {
    trace.clear();
    total_benefit = 0.0;
    num_accepted = 0;
    num_cautious_friends = 0;
    friends.clear();
    num_faulted = 0;
    num_retries = 0;
    rounds_suspended = 0;
    num_abandoned = 0;
  }
};

/// An adaptive befriending policy (the paper's π).
///
/// Policies observe only the AttackerView — never the realization — so any
/// implementation is automatically a legal adaptive strategy.
class Strategy {
 public:
  virtual ~Strategy() = default;

  /// Called once at simulation start, before any request.
  virtual void reset(const AccuInstance& instance, util::Rng& rng) {
    (void)instance;
    (void)rng;
  }

  /// Picks the next user to request (must be un-requested), or
  /// kInvalidNode to stop early (no useful candidate left).
  virtual NodeId select(const AttackerView& view, util::Rng& rng) = 0;

  /// Notified after the outcome of the previous selection is folded into
  /// the view.  `effects` is non-null iff the request was accepted.  Under
  /// a deferred FeedbackModel an accepted request's effects carry only the
  /// acceptance itself (empty new_fof/mutual_increased) — the neighborhood
  /// deltas arrive later through observe_revelation.
  virtual void observe(NodeId target, bool accepted,
                       const AttackerView& view,
                       const AttackerView::AcceptanceEffects* effects) {
    (void)target;
    (void)accepted;
    (void)view;
    (void)effects;
  }

  /// Notified when a queued neighborhood revelation lands (deferred
  /// FeedbackModel only; never called under full feedback).  `source` is
  /// the previously-accepted node whose neighborhood just became visible;
  /// `effects` carries the observed-state deltas (new_fof /
  /// mutual_increased; was_fof is meaningless here).  The default is a
  /// no-op: strategies that rescore from the view pick the new information
  /// up automatically, only incremental-cache strategies (ABM) must react.
  virtual void observe_revelation(NodeId source, const AttackerView& view,
                                  const AttackerView::AcceptanceEffects&
                                      effects) {
    (void)source;
    (void)view;
    (void)effects;
  }

  /// Fault-feedback hook: a strategy that implements FaultObserver (e.g.
  /// the RetryingStrategy decorator) overrides this to return itself, so
  /// the faulted environment can consult it without RTTI.  The default is
  /// "not fault-aware": every faulted request is abandoned.
  [[nodiscard]] virtual FaultObserver* as_fault_observer() { return nullptr; }

  /// Score-pack offer (core/score.hpp).  A strategy that scores through
  /// the flat SoA kernels returns true here; `simulate_into` then offers
  /// the instance's shared pack (ScorePack::of) via adopt_score_pack
  /// immediately before reset().  The offer is the same object reset()
  /// reads from the instance's artifact cache, so strategies need not keep
  /// it; decorators forward both calls, and a timing wrapper can measure
  /// the fetch as the gap between them.
  [[nodiscard]] virtual bool wants_score_pack() const { return false; }
  virtual void adopt_score_pack(const ScorePack& pack) { (void)pack; }

  /// Intra-cell parallelism (core/task_pool.hpp).  `simulate_into` offers
  /// the workspace-pooled task pool immediately before reset();
  /// strategies with parallel-friendly inner loops (lookahead branch
  /// evaluation, batched rescore chunks) may keep the pointer for the
  /// simulation whose reset() follows and fan independent tasks across it.
  /// Results must be trace-identical for any pool width — see the
  /// determinism contract in task_pool.hpp.  Default: ignore (sequential).
  virtual void adopt_task_pool(TaskPool* pool) { (void)pool; }

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Per-run options of `simulate` and `simulate_into` (core/engine.hpp).
/// The defaults are the paper's setting: a reliable platform, no
/// cancellation, full feedback.
struct SimOptions {
  /// Non-null runs against an unreliable platform: each request attempt may
  /// fault per the model (core/faults.hpp).  The budget then counts
  /// *rounds* — delivered requests, faulted requests, and suspension stalls
  /// all consume one each.  A strategy that implements FaultObserver (e.g.
  /// RetryingStrategy) decides whether a faulted target stays pending for a
  /// retry; any other strategy has every faulted target abandoned (recorded
  /// as rejected, surfaced through the normal observe() path).  An all-zero
  /// FaultConfig produces byte-identical traces to a null model for every
  /// strategy (a regression test enforces this).
  FaultModel* faults = nullptr;
  /// Polled between rounds when non-null; a fired token unwinds with
  /// util::CancelledError *before* the next request, so no partial trace
  /// ever escapes — the caller sees either a complete result or the
  /// exception.  Polling consumes no randomness: a token that never fires
  /// leaves every outcome byte-identical.
  const util::CancelToken* cancel = nullptr;
  /// The revelation model (core/feedback.hpp).  The default (full) is the
  /// paper's semantics; non-full models defer neighborhood revelations per
  /// DESIGN.md §15.  Trace benefits always measure the realized attack
  /// state, so results are comparable across models.
  FeedbackModel feedback{};
};

/// Runs `strategy` for at most `budget` requests against the given ground
/// truth.  `rng` drives only the strategy's own randomness (tie-breaking,
/// the Random baseline); all environment randomness lives in `truth` and
/// `options.faults`.  Allocates a transient workspace per call; callers
/// that run many simulations, or read the final view, use `simulate_into`
/// (core/engine.hpp) with a persistent SimWorkspace.
[[nodiscard]] SimulationResult simulate(const AccuInstance& instance,
                                        const Realization& truth,
                                        Strategy& strategy,
                                        std::uint32_t budget, util::Rng& rng,
                                        const SimOptions& options = {});

}  // namespace accu
