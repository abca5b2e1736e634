// RetryingStrategy — fault-tolerance decorator for any Strategy.
//
// Wraps an inner policy and absorbs the fault feedback of a faulted run
// (`SimOptions::faults`): when a request times out, is dropped, hits a
// transient error, or is rate-limited, the decorator consults its
// RetryPolicy and either schedules a re-request of the same target after a
// backoff delay (measured in attacker actions — the inner policy keeps
// requesting other targets meanwhile) or abandons the target.  Genuine
// accept/reject outcomes are forwarded to the inner policy untouched, so
// every baseline and ABM becomes fault-tolerant without modification.
//
// Determinism: backoff jitter is drawn from the decorator's own generator,
// reseeded from a fixed seed at every reset — never from the strategy RNG
// stream.  A wrapped strategy therefore consumes exactly the same strategy
// randomness as the bare one, and with zero faults the wrap is a perfect
// no-op (byte-identical traces; a regression test enforces this).

#pragma once

#include <memory>
#include <vector>

#include "core/faults.hpp"
#include "core/simulator.hpp"
#include "util/backoff.hpp"

namespace accu {

class RetryingStrategy final : public Strategy, public FaultObserver {
 public:
  RetryingStrategy(std::unique_ptr<Strategy> inner, util::RetryPolicy policy,
                   std::uint64_t seed = 0x5eed'0f41'7000'0001ULL);

  void reset(const AccuInstance& instance, util::Rng& rng) override;
  NodeId select(const AttackerView& view, util::Rng& rng) override;
  void observe(NodeId target, bool accepted, const AttackerView& view,
               const AttackerView::AcceptanceEffects* effects) override;
  // Late revelations (deferred FeedbackModel) carry no fault information —
  // they pass straight through to the wrapped policy.
  void observe_revelation(NodeId source, const AttackerView& view,
                          const AttackerView::AcceptanceEffects& effects)
      override {
    inner_->observe_revelation(source, view, effects);
  }
  FaultResponse observe_fault(NodeId target, FaultFeedback feedback,
                              const AttackerView& view) override;
  [[nodiscard]] FaultObserver* as_fault_observer() override { return this; }
  // Score-pack pooling passes straight through to the wrapped policy.
  [[nodiscard]] bool wants_score_pack() const override {
    return inner_->wants_score_pack();
  }
  void adopt_score_pack(const ScorePack& pack) override {
    inner_->adopt_score_pack(pack);
  }
  [[nodiscard]] std::string name() const override;

  /// Re-keys the backoff-jitter stream; takes effect at the next reset().
  /// Worker pools reuse one decorator across sweep cells and re-key it per
  /// (sample, run, strategy) so reuse stays byte-identical to a fresh wrap.
  void reseed(std::uint64_t seed) noexcept { seed_ = seed; }

  [[nodiscard]] const util::RetryPolicy& policy() const noexcept {
    return policy_;
  }
  [[nodiscard]] const Strategy& inner() const noexcept { return *inner_; }

 private:
  struct PendingRetry {
    NodeId target = kInvalidNode;
    std::uint64_t due_round = 0;  // retry once round_ reaches this
  };

  std::unique_ptr<Strategy> inner_;
  util::RetryPolicy policy_;
  std::uint64_t seed_;
  util::Rng rng_;
  std::vector<PendingRetry> pending_;
  std::vector<std::uint32_t> failed_attempts_;  // per target
  std::uint64_t round_ = 0;                     // select() calls so far
};

}  // namespace accu
