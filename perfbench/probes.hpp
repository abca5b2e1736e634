// Probes the benchmark wraps around the library from outside: a span log,
// a forwarding Strategy decorator that times every policy call, a counting
// util::IoEnv, and the host stamp printed with every result.
//
// Nothing here changes what the library computes.  The decorator forwards
// every virtual of Strategy (a decorator that dropped wants_score_pack
// would make ABM rebuild its score pack every cell — a different program),
// and the counting environment forwards every call to util::real_io_env().

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "util/io_env.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// What one span covers.  kPack is the gap between a policy's
/// wants_score_pack() returning true and its adopt_score_pack() call: the
/// engine spends it fetching (and on first use per instance, building) the
/// workspace's ScorePack.
enum class SpanKind : std::uint8_t {
  kReset,
  kSelect,
  kObserve,
  kRevelation,
  kPack,
  kFactory,
  kProgress,
};

[[nodiscard]] const char* span_kind_name(SpanKind kind);

struct Span {
  std::int64_t start_ns = 0;  ///< relative to the log's origin
  std::int64_t end_ns = 0;
  std::uint32_t cell = 0;     ///< parent cell id (cells completed so far)
  std::uint8_t policy = 0;    ///< roster index; 0xff when not a policy call
  SpanKind kind = SpanKind::kReset;
};

/// In-memory spans of one traced run, written out when the run ends.  Used
/// from one thread: every traced workload runs its cells on one thread.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  void add(SpanKind kind, std::uint8_t policy, Clock::time_point start,
           Clock::time_point end);
  /// Closes the current cell; later spans belong to the next one.
  void next_cell() { ++cell_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// CSV: name,policy,cell,start_ns,end_ns.
  void write_csv(const std::string& path,
                 const std::vector<std::string>& policy_names) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::uint32_t cell_ = 0;
};

/// Busy time and call counts of one roster policy across a traced run.
struct PolicyStats {
  double reset_ms = 0.0, select_ms = 0.0, observe_ms = 0.0;
  double revelation_ms = 0.0, pack_ms = 0.0;
  std::uint64_t resets = 0, selects = 0, observes = 0, revelations = 0;
  std::uint64_t pack_adopts = 0;
};

/// Forwarding decorator: times reset / select / observe /
/// observe_revelation and forwards every other virtual untouched.
class TimedStrategy final : public accu::Strategy {
 public:
  TimedStrategy(std::unique_ptr<accu::Strategy> inner, std::uint8_t policy,
                PolicyStats& stats, SpanLog& log)
      : inner_(std::move(inner)), policy_(policy), stats_(stats), log_(log) {}

  void reset(const accu::AccuInstance& instance,
             accu::util::Rng& rng) override;
  accu::NodeId select(const accu::AttackerView& view,
                      accu::util::Rng& rng) override;
  void observe(accu::NodeId target, bool accepted,
               const accu::AttackerView& view,
               const accu::AttackerView::AcceptanceEffects* effects) override;
  void observe_revelation(
      accu::NodeId source, const accu::AttackerView& view,
      const accu::AttackerView::AcceptanceEffects& effects) override;
  [[nodiscard]] accu::FaultObserver* as_fault_observer() override {
    return inner_->as_fault_observer();
  }
  [[nodiscard]] bool wants_score_pack() const override;
  void adopt_score_pack(const accu::ScorePack& pack) override;
  void adopt_task_pool(accu::TaskPool* pool) override {
    inner_->adopt_task_pool(pool);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<accu::Strategy> inner_;
  std::uint8_t policy_;
  PolicyStats& stats_;
  SpanLog& log_;
  /// When wants_score_pack() last answered true; the pack span ends at the
  /// adopt_score_pack() call the engine makes right after.
  mutable Clock::time_point pack_asked_{};
};

/// The roster with each factory's product wrapped in a TimedStrategy.
/// `stats` must hold one entry per roster policy and outlive the sweep.
[[nodiscard]] std::vector<accu::StrategyFactory> timed_roster(
    const std::vector<accu::StrategyFactory>& roster,
    std::vector<PolicyStats>& stats, SpanLog& log);

/// Which durable file an I/O call touched.
enum class PathClass : std::uint8_t {
  kCheckpoint,
  kJournal,
  kSpool,
  kProgress,
  kReport,
  kOther,
  kCount,
};

[[nodiscard]] const char* path_class_name(PathClass c);
[[nodiscard]] PathClass classify_path(const std::string& path);

struct IoCounts {
  std::uint64_t writes = 0, bytes = 0, fsyncs = 0;
  std::uint64_t fsync_dirs = 0, renames = 0;
  double fsync_ms = 0.0;
};

/// util::IoEnv that forwards to util::real_io_env() and counts, per path
/// class, the writes, bytes, fsyncs, directory fsyncs and renames it sees.
/// Thread-safe.  Temp files of an atomic replace count under the class of
/// the name they are renamed to (the temp name carries the target's).
class CountingIoEnv final : public accu::util::IoEnv {
 public:
  int open_write(const std::string& path, accu::util::OpenMode mode) override;
  long write(int fd, const char* data, std::size_t len) override;
  int fsync(int fd) override;
  int close(int fd) override;
  int rename(const std::string& from, const std::string& to) override;
  int truncate(const std::string& path, std::uint64_t length) override;
  int unlink(const std::string& path) override;
  accu::util::DirSyncResult fsync_dir(const std::string& dir) override;
  long long size(int fd) override;

  [[nodiscard]] IoCounts counts(PathClass c) const;
  /// CSV: class,writes,bytes,fsyncs,fsync_ms,fsync_dirs,renames.
  void write_csv(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::map<int, PathClass> open_;  // guarded by mu_
  IoCounts counts_[static_cast<int>(PathClass::kCount)];  // guarded by mu_
};

/// CPU model, core count, L3 size, active SIMD table, compiler and build
/// type as one JSON object.  Results from hosts with different stamps are
/// not comparable.
[[nodiscard]] std::string host_stamp_json();

/// Peak resident set of this process and of its reaped children, in MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
