// Experiment harness implementing the paper's evaluation protocol (§IV-A):
// generate S sample networks per dataset, run every policy R times on each,
// and average — with the refinement that all policies within one
// (sample, run) pair face the *same* ground-truth realization, a paired
// design that tightens the comparisons the paper plots.
//
// Aggregation covers every figure of the paper:
//   * cumulative benefit per request index                      (Fig. 2)
//   * per-request marginal gain, split by target class          (Fig. 3)
//   * totals: benefit, #cautious friends, #accepted             (Fig. 4, 6, 7)
//   * fraction of runs whose i-th request targeted a cautious
//     user                                                      (Fig. 5)
//   * robustness totals under fault injection: faulted requests,
//     retries, rounds lost to suspension, abandoned targets
//
// The harness is crash-safe and supervised: worker exceptions are captured
// per cell and reported in ExperimentResult::failures (surviving cells
// still aggregate), a watchdog thread cancels cells that exceed their
// wall-clock deadline (optionally re-running them with a fresh derived
// seed stream), an external interrupt flag (SIGINT/SIGTERM from the CLI)
// stops the sweep at cell granularity with the checkpoint flushed, and the
// crash-consistent checkpoint file (v2: per-cell CRC32 trailers, atomic
// header, per-cell fsync) lets a killed sweep resume at (sample, run)
// granularity with bit-identical aggregates — even after a crash mid-append
// tore the final block.

#pragma once

#include <csignal>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/faults.hpp"
#include "core/score_simd.hpp"
#include "core/simulator.hpp"
#include "util/atomic_file.hpp"
#include "util/backoff.hpp"
#include "util/stats.hpp"

namespace accu {

/// The per-run totals TraceAggregator folds beside the per-request curves,
/// as SimulationResult carries them (`benefit` is its total_benefit).
struct RunTotals {
  double benefit = 0.0;
  std::uint32_t accepted = 0;
  std::uint32_t cautious_friends = 0;
  std::uint32_t faulted = 0;
  std::uint32_t retries = 0;
  std::uint32_t suspended = 0;
  std::uint32_t abandoned = 0;
};

/// Accumulates per-request curves and totals across repeated simulations.
class TraceAggregator {
 public:
  /// Folds one simulation into the aggregate.  Short traces (policy ran out
  /// of candidates) hold their final benefit for the remaining indices so
  /// cumulative curves stay comparable; `budget` fixes that horizon.
  void add(const SimulationResult& result, std::uint32_t budget) {
    add(result.trace,
        {result.total_benefit, result.num_accepted,
         result.num_cautious_friends, result.num_faulted, result.num_retries,
         result.rounds_suspended, result.num_abandoned},
        budget);
  }

  /// The same fold from a run's trace and totals alone — how checkpointed
  /// cells replay without rebuilding a SimulationResult.
  void add(std::span<const RequestRecord> trace, const RunTotals& totals,
           std::uint32_t budget);

  /// Merges another aggregator (shards of a parallel sweep).  Statistically
  /// exact: means/variances/CIs equal the sequential accumulation.
  void merge(const TraceAggregator& other);

  /// Back to the default-constructed state, keeping the series' capacity
  /// so one aggregator can stand in for a fresh one per cell.
  void clear() noexcept;

  /// Cumulative Eq.-(1) benefit after request i (0-based).
  [[nodiscard]] const util::SeriesAccumulator& cumulative_benefit() const {
    return cumulative_benefit_;
  }
  /// Marginal gain of request i.
  [[nodiscard]] const util::SeriesAccumulator& marginal() const {
    return marginal_;
  }
  /// Marginal gain of request i when it targeted a cautious user, else 0 —
  /// the paper's Fig. 3 "benefit from cautious users" decomposition.
  [[nodiscard]] const util::SeriesAccumulator& marginal_cautious() const {
    return marginal_cautious_;
  }
  [[nodiscard]] const util::SeriesAccumulator& marginal_reckless() const {
    return marginal_reckless_;
  }
  /// Indicator that request i targeted a cautious user; its mean over runs
  /// is the paper's Fig. 5 fraction.
  [[nodiscard]] const util::SeriesAccumulator& cautious_fraction() const {
    return cautious_fraction_;
  }

  [[nodiscard]] const util::RunningStat& total_benefit() const {
    return total_benefit_;
  }
  [[nodiscard]] const util::RunningStat& cautious_friends() const {
    return cautious_friends_;
  }
  [[nodiscard]] const util::RunningStat& accepted_requests() const {
    return accepted_;
  }

  // --- robustness stats (all zero on a reliable platform) ----------------
  [[nodiscard]] const util::RunningStat& faulted_requests() const {
    return faulted_;
  }
  [[nodiscard]] const util::RunningStat& retries() const { return retries_; }
  [[nodiscard]] const util::RunningStat& suspended_rounds() const {
    return suspended_;
  }
  [[nodiscard]] const util::RunningStat& abandoned_targets() const {
    return abandoned_;
  }

 private:
  util::SeriesAccumulator cumulative_benefit_;
  util::SeriesAccumulator marginal_;
  util::SeriesAccumulator marginal_cautious_;
  util::SeriesAccumulator marginal_reckless_;
  util::SeriesAccumulator cautious_fraction_;
  util::RunningStat total_benefit_;
  util::RunningStat cautious_friends_;
  util::RunningStat accepted_;
  util::RunningStat faulted_;
  util::RunningStat retries_;
  util::RunningStat suspended_;
  util::RunningStat abandoned_;
};

/// Builds a fresh policy instance per simulation (policies are stateful).
struct StrategyFactory {
  std::string name;
  std::function<std::unique_ptr<Strategy>()> make;
};

/// Builds the instance for sample network number `sample` from a derived
/// seed; the factory owns all dataset-level randomness.
using InstanceFactory =
    std::function<AccuInstance(std::uint32_t sample, std::uint64_t seed)>;

/// Snapshot handed to ExperimentConfig::progress after each completed
/// (sample, run) cell — the hook live dashboards and the serve daemon's
/// per-job status files are built on.
struct ExperimentProgress {
  /// Owned cells finished so far (checkpoint-restored ones included).
  std::size_t cells_done = 0;
  /// Owned cells in this invocation (this shard's share of the grid).
  std::size_t cells_total = 0;
  /// Wall-clock of the just-finished cell in ms; 0 for restored cells.
  double cell_ms = 0.0;
  /// True for the one batched notification covering checkpoint-restored
  /// cells (no simulation ran; cell_ms is meaningless for them).
  bool restored = false;
};

struct ExperimentConfig {
  std::uint32_t budget = 100;  ///< k — friend requests per attack
  std::uint32_t samples = 3;   ///< sample networks per dataset (paper: 100)
  std::uint32_t runs = 5;      ///< repetitions per network (paper: 30)
  std::uint64_t seed = 1;      ///< master seed; everything derives from it
  /// Worker threads for the (sample, run) grid.  1 = sequential;
  /// 0 = one per hardware thread.  Every cell's randomness is derived
  /// statelessly from (seed, sample, run, strategy) and shards merge in a
  /// fixed order, so simulation outcomes are identical for any thread
  /// count (aggregate moments agree up to floating-point re-association).
  std::uint32_t threads = 1;
  /// Intra-cell concurrency (core/task_pool.hpp): each worker's strategies
  /// may fan independent work — lookahead beam candidates, batched-rescore
  /// chunks — across a per-worker pool of this total width (1 = sequential,
  /// 0 = one per hardware thread).  Traces are identical for any width
  /// (the pool's determinism contract), so like `threads` this is not part
  /// of the checkpoint fingerprint.  Total thread count is roughly
  /// threads × cell_threads; prefer raising `threads` first — cell_threads
  /// pays off when a single cell dominates wall-clock (deep lookahead).
  std::uint32_t cell_threads = 1;
  /// SIMD kernel table for the score/sampling hot loops
  /// (core/score_simd.hpp), selected once at sweep start: nullopt = auto
  /// (the best ISA this CPU supports, overridable by ACCU_SIMD); an
  /// explicit ISA throws InvalidArgument when the host cannot run it.
  /// Every table is bit-identical (canonical reduction order), so this is
  /// not part of the checkpoint fingerprint either.
  std::optional<simd::Isa> simd{};
  /// Platform fault injection (core/faults.hpp).  All-zero (the default)
  /// runs the paper's reliable platform through the unchanged `simulate`
  /// path.  Fault streams derive statelessly per (sample, run, strategy),
  /// so faulted sweeps stay thread-count invariant.
  FaultConfig faults{};
  /// When not kNone, every strategy instance is wrapped in a
  /// RetryingStrategy with this policy (jitter seeded per cell).
  util::RetryPolicy retry{};
  /// Feedback model for every simulation of the sweep
  /// (core/feedback.hpp; DESIGN.md §15).  The default full model is the
  /// paper's semantics and leaves every code path — including the
  /// checkpoint bytes and report — untouched.  Non-full models are part of
  /// the checkpoint fingerprint: a resume under a different model is
  /// rejected.
  FeedbackModel feedback{};
  /// When non-empty, completed (sample, run) cells are appended to this
  /// file as they finish, and an existing file is loaded first so a killed
  /// sweep resumes where it stopped — with aggregates bit-identical to an
  /// uninterrupted run.  The file must belong to the same experiment
  /// (config fingerprint is checked; mismatch throws IoError).  Files are
  /// written in the v2 format (per-cell CRC32 trailers, fsync per cell); a
  /// torn or CRC-failing tail is truncated with a warning on load.  Files
  /// in any other format version are rejected with an IoError.
  std::string checkpoint_path{};
  /// Checkpoint fsync cadence (util/atomic_file.hpp).  strict (default)
  /// syncs every cell; grouped amortizes the fsync over group_cells /
  /// group_ms with a forced flush on interrupt/deadline drain and at sweep
  /// end.  A crash under grouped loses at most the last uncommitted group,
  /// which simply re-runs on resume (CRC trailers + first-wins dedup keep
  /// the final report bit-identical).  Not part of the checkpoint
  /// fingerprint — like `threads`, a resume may switch modes freely.
  util::DurabilityPolicy durability{};
  /// Wall-clock budget per (sample, run) cell in milliseconds; 0 = none.
  /// A cell that exceeds it is cancelled cooperatively (between simulation
  /// rounds) by the watchdog and recorded in ExperimentResult::failures
  /// with its elapsed time; no partial trace reaches the aggregates.
  std::uint32_t cell_deadline_ms = 0;
  /// How many times a deadline-cancelled cell is re-run before it is given
  /// up as failed.  Each retry derives a fresh policy/fault/retry seed
  /// stream from (seed, sample, run, strategy, attempt) — deterministic
  /// and thread-count invariant, like the fault seeds.  The ground-truth
  /// realization is left untouched so the paired design survives retries.
  std::uint32_t max_cell_retries = 0;
  /// Optional external stop flag, designed to be set from a signal handler
  /// (`volatile std::sig_atomic_t` is the only type a handler may write).
  /// The watchdog polls it; once non-zero, in-flight cells are cancelled,
  /// no new cells start, the checkpoint is already flushed per cell, and
  /// run_experiment returns with ExperimentResult::interrupted set.
  const volatile std::sig_atomic_t* interrupt_flag = nullptr;
  /// Sharded execution: this invocation runs only the (sample, run) cells
  /// whose flat task index `sample * runs + run` satisfies
  /// `task % shard_count == shard_index`.  The stride interleaves runs, so
  /// every shard touches every sample (whenever shard_count <= runs) and
  /// load balances across heterogeneous samples.  Task indices, seeds, and
  /// per-cell outcomes are global — independent machines can each take one
  /// shard (with their own checkpoint files) and merge_shard_checkpoints
  /// recombines them into aggregates bit-identical to an unsharded
  /// sequential sweep.  The default 0/1 is the unsharded grid.
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  /// Optional progress observer: invoked once for the block of cells
  /// restored from the checkpoint (if any) and then after every cell that
  /// completes, under an internal mutex — invocations are serialized and
  /// cells_done is monotonic for any worker-thread count.  Keep it cheap;
  /// the sweep blocks while it runs.  Failed/cancelled cells never count.
  std::function<void(const ExperimentProgress&)> progress;
};

/// Parses a `--shard=i/n` spec ("0/4") into {shard_index, shard_count}.
/// Throws InvalidArgument unless 0 <= i < n.
[[nodiscard]] std::pair<std::uint32_t, std::uint32_t> parse_shard_spec(
    const std::string& spec);

/// One (sample, run) cell that did not complete.  The sweep survives:
/// failed cells contribute nothing to the aggregates and are reported
/// here.  `run == kAllRuns` marks a sample whose instance factory failed
/// (all its cells are skipped).
struct CellFailure {
  enum class Kind : std::uint8_t {
    kError = 0,     ///< the worker threw (bug, bad data, ...)
    kDeadline = 1,  ///< exceeded cell_deadline_ms on every allowed attempt
    kCancelled = 2, ///< stopped by the external interrupt flag
  };
  static constexpr std::uint32_t kAllRuns = 0xffffffffu;
  std::uint32_t sample = 0;
  std::uint32_t run = 0;
  Kind kind = Kind::kError;
  /// How many times the cell was attempted (1 = no retries granted).
  std::uint32_t attempts = 1;
  /// Wall-clock spent on the final attempt, for deadline forensics.
  double elapsed_ms = 0.0;
  std::string error;
};

[[nodiscard]] const char* cell_failure_kind_name(
    CellFailure::Kind kind) noexcept;

struct ExperimentResult {
  std::vector<std::string> strategy_names;
  std::vector<TraceAggregator> aggregates;  // parallel to strategy_names
  std::vector<CellFailure> failures;        // empty on a clean sweep
  /// Cells that blew their deadline at least once but were re-run; a cell
  /// counts once no matter how many retries it consumed.  Cells whose last
  /// attempt also failed additionally appear in `failures`.
  std::uint32_t cells_retried = 0;
  /// True when the sweep was stopped by ExperimentConfig::interrupt_flag;
  /// the aggregates cover only the cells that finished (plus checkpointed
  /// ones), and a checkpointed sweep can be resumed to completion.
  bool interrupted = false;

  [[nodiscard]] const TraceAggregator& by_name(const std::string& name) const;
};

/// Runs the full samples × runs × strategies sweep.
[[nodiscard]] ExperimentResult run_experiment(
    const InstanceFactory& make_instance,
    const std::vector<StrategyFactory>& strategies,
    const ExperimentConfig& config);

/// What merging N shard checkpoint files produced (the `accu merge`
/// subcommand; callable directly for tests).
struct ShardMergeOutcome {
  /// Aggregates replayed through TraceAggregator::add in fixed task order
  /// — bit-identical to an unsharded sequential sweep when every cell of
  /// the grid is present.
  ExperimentResult result;
  /// The sweep shape reconstructed from the (matching) headers, with
  /// shard identity reset to the unsharded 0/1.  write_markdown_report
  /// accepts it directly.
  ExperimentConfig config;
  std::size_t cells_merged = 0;     ///< distinct (sample, run) cells found
  std::size_t cells_missing = 0;    ///< grid cells absent from every input
  std::size_t duplicate_cells = 0;  ///< cells present in > 1 input (deduped)
  std::vector<std::size_t> shard_cells;  ///< valid cells per input file
};

/// Combines shard checkpoint files into one result.  Every file must carry
/// the same experiment fingerprint (seed, grid shape, budget, strategy
/// roster, fault/retry config) — shard identities may differ, and files
/// may overlap (duplicated cells are deterministic, so the first copy
/// wins).  Torn or CRC-failing tails are dropped per shard exactly as on
/// resume; the affected cells count as missing, not as errors.  When
/// `merged_output_path` is non-empty, the surviving cells are also written
/// there as one unsharded v2 checkpoint (atomic replace) that
/// run_experiment can resume from: the CRC-verified block bytes of each
/// input are copied as they are, in task order, so it equals the file an
/// unsharded one-thread sweep writes.  Throws IoError on unreadable or
/// fingerprint-mismatched inputs, InvalidArgument when `paths` is empty.
[[nodiscard]] ShardMergeOutcome merge_shard_checkpoints(
    const std::vector<std::string>& paths,
    const std::string& merged_output_path = {});

}  // namespace accu
