// Cooperative cancellation for long-running simulations and sweeps.
//
// A CancelToken is a small thread-safe flag that long-running work polls
// between units of progress.  The simulator checks it between rounds, so a
// pathological cell (e.g. a deep lookahead on a dense instance) can be
// stopped at the next round boundary — cancellation is cooperative and
// never interrupts a computation mid-step, which keeps every data
// structure consistent at the point of unwind.
//
// Contract:
//   * cancel() is safe from any thread and idempotent; the first reason to
//     fire wins and is what check() reports.
//   * An optional wall-clock deadline makes the token self-expiring:
//     cancelled() latches kDeadline once the deadline passes.
//   * An optional external stop flag (a `volatile std::sig_atomic_t` a
//     signal handler writes) is read at the same polling point:
//     cancelled() latches kInterrupt once the flag is non-zero.  Together
//     these two are the whole supervision story — no thread watches the
//     token, so a cell sees its deadline or an interrupt at its next
//     round boundary.
//   * check() throws CancelledError, the unwind vehicle: a cancelled cell
//     reports Cancelled and leaves no partially aggregated trace behind.
//   * clear() re-arms a token for reuse: it drops the reason and the
//     deadline but keeps the watched flag.

#pragma once

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <stdexcept>

namespace accu::util {

/// Why a CancelToken fired.
enum class CancelReason : std::uint8_t {
  kNone = 0,
  kDeadline = 1,   ///< wall-clock deadline exceeded
  kInterrupt = 2,  ///< external stop (SIGINT/SIGTERM or caller cancel)
};

[[nodiscard]] constexpr const char* cancel_reason_name(
    CancelReason reason) noexcept {
  switch (reason) {
    case CancelReason::kNone: return "none";
    case CancelReason::kDeadline: return "deadline";
    case CancelReason::kInterrupt: return "interrupt";
  }
  return "?";
}

/// Thrown by CancelToken::check() to unwind cancelled work.  Not an input
/// error: callers that supervise cells catch it separately from
/// InvalidArgument / IoError and report the cell as cancelled.
class CancelledError : public std::runtime_error {
 public:
  explicit CancelledError(CancelReason reason)
      : std::runtime_error(reason == CancelReason::kDeadline
                               ? "cancelled: deadline exceeded"
                               : "cancelled: interrupted"),
        reason_(reason) {}

  [[nodiscard]] CancelReason reason() const noexcept { return reason_; }

 private:
  CancelReason reason_;
};

/// True once the external stop flag `flag` is non-zero (nullptr: never).
/// The flag is written by a signal handler or another thread, so it is
/// read with a relaxed atomic load rather than a plain volatile one.
[[nodiscard]] inline bool stop_requested(
    const volatile std::sig_atomic_t* flag) noexcept {
  return flag != nullptr && __atomic_load_n(flag, __ATOMIC_RELAXED) != 0;
}

class CancelToken {
 public:
  CancelToken() = default;
  /// A token that also fires with kInterrupt once `*stop` is non-zero
  /// (see stop_requested; nullptr watches nothing).
  explicit CancelToken(const volatile std::sig_atomic_t* stop) noexcept
      : stop_(stop) {}
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Raises the token.  First reason wins; later calls are no-ops.
  void cancel(CancelReason reason = CancelReason::kInterrupt) noexcept {
    std::uint8_t expected = 0;
    reason_.compare_exchange_strong(expected,
                                    static_cast<std::uint8_t>(reason),
                                    std::memory_order_relaxed);
  }

  /// Arms a wall-clock deadline `budget` from now; the token self-expires
  /// with CancelReason::kDeadline once it passes.
  void set_deadline_after(std::chrono::milliseconds budget) noexcept {
    const auto when = std::chrono::steady_clock::now() + budget;
    deadline_ns_.store(when.time_since_epoch().count(),
                       std::memory_order_relaxed);
  }

  /// Re-arms the token: clears the reason and any deadline (the watched
  /// stop flag stays).
  void clear() noexcept {
    reason_.store(0, std::memory_order_relaxed);
    deadline_ns_.store(0, std::memory_order_relaxed);
  }

  [[nodiscard]] bool cancelled() const noexcept {
    if (reason_.load(std::memory_order_relaxed) != 0) return true;
    // Latch whichever fired so reason() is stable afterwards.
    auto* self = const_cast<CancelToken*>(this);
    if (stop_requested(stop_)) {
      self->cancel(CancelReason::kInterrupt);
      return true;
    }
    const std::int64_t deadline =
        deadline_ns_.load(std::memory_order_relaxed);
    if (deadline != 0 &&
        std::chrono::steady_clock::now().time_since_epoch().count() >=
            deadline) {
      self->cancel(CancelReason::kDeadline);
      return true;
    }
    return false;
  }

  [[nodiscard]] CancelReason reason() const noexcept {
    return static_cast<CancelReason>(reason_.load(std::memory_order_relaxed));
  }

  /// Throws CancelledError when the token has fired.  The polling point for
  /// cooperative work, cheap on the happy path: a few relaxed loads (the
  /// reason, the watched flag, the deadline), plus a clock read when a
  /// deadline is armed.
  void check() const {
    if (cancelled()) throw CancelledError(reason());
  }

 private:
  std::atomic<std::uint8_t> reason_{0};
  /// steady_clock deadline in time_since_epoch ticks; 0 = unarmed.
  std::atomic<std::int64_t> deadline_ns_{0};
  /// External stop flag read by cancelled(); nullptr = none.
  const volatile std::sig_atomic_t* stop_ = nullptr;
};

}  // namespace accu::util
