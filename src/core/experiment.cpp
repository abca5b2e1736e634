#include "core/experiment.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <system_error>
#include <thread>

#include "core/checkpoint.hpp"
#include "core/engine.hpp"
#include "core/strategies/retrying.hpp"
#include "util/atomic_file.hpp"
#include "util/cancel.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace accu {

void TraceAggregator::add(std::span<const RequestRecord> trace,
                          const RunTotals& totals, std::uint32_t budget) {
  double running = 0.0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const RequestRecord& record = trace[i];
    running = record.benefit_after;
    cumulative_benefit_.add_at(i, running);
    marginal_.add_at(i, record.marginal());
    if (record.cautious_target) {
      marginal_cautious_.add_at(i, record.marginal());
      marginal_reckless_.add_at(i, 0.0);
      cautious_fraction_.add_at(i, 1.0);
    } else {
      marginal_cautious_.add_at(i, 0.0);
      marginal_reckless_.add_at(i, record.marginal());
      cautious_fraction_.add_at(i, 0.0);
    }
  }
  // Hold the final benefit for unused budget so per-index averages compare
  // policies over the same horizon.  Suspension-stalled rounds are *not*
  // padding: they sit inside the trace as explicit zero-marginal records,
  // so their indices keep one sample per run like every other round.
  for (std::size_t i = trace.size(); i < budget; ++i) {
    cumulative_benefit_.add_at(i, running);
    marginal_.add_at(i, 0.0);
    marginal_cautious_.add_at(i, 0.0);
    marginal_reckless_.add_at(i, 0.0);
    cautious_fraction_.add_at(i, 0.0);
  }
  total_benefit_.add(totals.benefit);
  cautious_friends_.add(totals.cautious_friends);
  accepted_.add(totals.accepted);
  faulted_.add(totals.faulted);
  retries_.add(totals.retries);
  suspended_.add(totals.suspended);
  abandoned_.add(totals.abandoned);
}

void TraceAggregator::merge(const TraceAggregator& other) {
  cumulative_benefit_.merge(other.cumulative_benefit_);
  marginal_.merge(other.marginal_);
  marginal_cautious_.merge(other.marginal_cautious_);
  marginal_reckless_.merge(other.marginal_reckless_);
  cautious_fraction_.merge(other.cautious_fraction_);
  total_benefit_.merge(other.total_benefit_);
  cautious_friends_.merge(other.cautious_friends_);
  accepted_.merge(other.accepted_);
  faulted_.merge(other.faulted_);
  retries_.merge(other.retries_);
  suspended_.merge(other.suspended_);
  abandoned_.merge(other.abandoned_);
}

void TraceAggregator::clear() noexcept {
  cumulative_benefit_.clear();
  marginal_.clear();
  marginal_cautious_.clear();
  marginal_reckless_.clear();
  cautious_fraction_.clear();
  total_benefit_ = cautious_friends_ = accepted_ = faulted_ = retries_ =
      suspended_ = abandoned_ = util::RunningStat();
}

const char* cell_failure_kind_name(CellFailure::Kind kind) noexcept {
  switch (kind) {
    case CellFailure::Kind::kError: return "error";
    case CellFailure::Kind::kDeadline: return "deadline";
    case CellFailure::Kind::kCancelled: return "cancelled";
  }
  return "?";
}

const TraceAggregator& ExperimentResult::by_name(
    const std::string& name) const {
  for (std::size_t i = 0; i < strategy_names.size(); ++i) {
    if (strategy_names[i] == name) return aggregates[i];
  }
  throw InvalidArgument("no strategy named '" + name + "' in this result");
}

std::pair<std::uint32_t, std::uint32_t> parse_shard_spec(
    const std::string& spec) {
  const std::size_t slash = spec.find('/');
  std::uint32_t index = 0, count = 0;
  bool ok = slash != std::string::npos && slash > 0 &&
            slash + 1 < spec.size();
  if (ok) {
    try {
      std::size_t pos = 0;
      index = static_cast<std::uint32_t>(
          std::stoul(spec.substr(0, slash), &pos));
      ok = pos == slash;
      std::size_t pos2 = 0;
      const std::string tail = spec.substr(slash + 1);
      count = static_cast<std::uint32_t>(std::stoul(tail, &pos2));
      ok = ok && pos2 == tail.size();
    } catch (const std::exception&) {
      ok = false;
    }
  }
  if (!ok || count == 0 || index >= count) {
    throw InvalidArgument("bad shard spec '" + spec +
                          "' (expected i/n with 0 <= i < n, e.g. 0/4)");
  }
  return {index, count};
}

namespace {

/// Stateless seed derivation so any (sample, run, strategy) cell can be
/// reproduced in isolation and in any execution order.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t a,
                          std::uint64_t b = 0, std::uint64_t c = 0) {
  std::uint64_t state = base;
  state ^= 0x9e3779b97f4a7c15ULL * (a + 1);
  (void)util::splitmix64_next(state);
  state ^= 0xbf58476d1ce4e5b9ULL * (b + 1);
  (void)util::splitmix64_next(state);
  state ^= 0x94d049bb133111ebULL * (c + 1);
  return util::splitmix64_next(state);
}

// Distinct stream salts so fault / retry randomness never collides with
// the truth or policy streams of the same cell.
constexpr std::uint64_t kFaultStreamSalt = 0xfa17fa17fa17fa17ULL;
constexpr std::uint64_t kRetryStreamSalt = 0x5e77bacc0ff5e7ULL;
// Salt for the fresh seed-stream tag of a deadline-retried cell: attempt
// `a` > 0 re-derives policy/fault/retry streams from this base while the
// ground-truth stream stays untouched (the paired design survives).
constexpr std::uint64_t kCellRetrySalt = 0xdead11e0dead11e0ULL;

}  // namespace

ExperimentResult run_experiment(const InstanceFactory& make_instance,
                                const std::vector<StrategyFactory>& strategies,
                                const ExperimentConfig& config) {
  config.faults.validate();
  config.durability.validate();
  // Kernel selection happens before any worker spins up (the table pointer
  // is atomic, but selecting mid-sweep would be needless churn).  Explicit
  // unsupported ISAs throw here, before any cell runs.
  simd::select(config.simd);
  if (config.shard_count == 0 ||
      config.shard_index >= config.shard_count) {
    throw InvalidArgument(
        "ExperimentConfig: shard_index " +
        std::to_string(config.shard_index) + " out of range for shard_count " +
        std::to_string(config.shard_count));
  }
  ExperimentResult result;
  result.strategy_names.reserve(strategies.size());
  for (const StrategyFactory& factory : strategies) {
    result.strategy_names.push_back(factory.name);
  }
  result.aggregates.resize(strategies.size());

  util::Timer timer;
  // Task grid: one (sample, run) cell produces one partial aggregate per
  // strategy; cells are independent and merged in fixed task order below.
  // Task indices are global even under sharding, so shard checkpoints from
  // independent machines align for merge_shard_checkpoints.
  const std::size_t tasks =
      static_cast<std::size_t>(config.samples) * config.runs;
  std::vector<std::vector<TraceAggregator>> partials(
      tasks, std::vector<TraceAggregator>(strategies.size()));
  std::vector<bool> done(tasks, false);
  // A shard owns every shard_count-th task (strided, so every shard sees
  // every sample whenever shard_count <= runs).  Foreign tasks are marked
  // done up front: they never run, never aggregate, and checkpoint blocks
  // for them (e.g. in a hand-merged file) are ignored.
  std::size_t owned_tasks = tasks;
  if (config.shard_count > 1) {
    owned_tasks = 0;
    for (std::size_t task = 0; task < tasks; ++task) {
      if (task % config.shard_count == config.shard_index) {
        ++owned_tasks;
      } else {
        done[task] = true;
      }
    }
    util::log_info("experiment: shard %u/%u owns %zu of %zu cells",
                   config.shard_index, config.shard_count, owned_tasks,
                   tasks);
  }

  // Progress accounting: completed owned cells, restored ones included.
  // The mutex both guards the counter and serializes the observer, so
  // callers see monotonic cells_done regardless of the worker count.
  std::mutex progress_mutex;
  std::size_t cells_completed = 0;
  auto report_progress = [&](std::size_t delta, double cell_ms,
                             bool restored_cells) {
    if (!config.progress) return;
    const std::lock_guard<std::mutex> lock(progress_mutex);
    cells_completed += delta;
    ExperimentProgress p;
    p.cells_done = cells_completed;
    p.cells_total = owned_tasks;
    p.cell_ms = cell_ms;
    p.restored = restored_cells;
    config.progress(p);
  };

  // Checkpoint: restore completed cells, then append new ones as they
  // finish.  The header write is atomic (temp + fsync + rename) and
  // appended blocks are fsynced per the durability policy (strict: every
  // cell; grouped: every N cells / T ms plus a forced flush on every stop
  // path), so a crash at any instant leaves a file the loader can resume
  // from — grouped merely widens the re-run window to the last uncommitted
  // group.
  const checkpoint::Fingerprint fingerprint =
      checkpoint::fingerprint_of(config, result.strategy_names);
  util::GroupCommitAppender checkpoint_out;
  std::mutex checkpoint_mutex;
  if (!config.checkpoint_path.empty()) {
    std::error_code ec;
    const std::uintmax_t size =
        std::filesystem::file_size(config.checkpoint_path, ec);
    const bool existing = !ec && size > 0;
    std::size_t restored = 0;
    if (existing) {
      checkpoint::Fingerprint parsed;
      const checkpoint::LoadResult loaded = checkpoint::load(
          config.checkpoint_path, parsed,
          [&] {
            checkpoint::check_fingerprint(config.checkpoint_path, parsed,
                                          fingerprint, /*check_shard=*/true);
          },
          [&](const checkpoint::Cell& cell) {
            if (done[cell.task]) return;  // shard-foreign task: ignore
            for (std::size_t s = 0; s < strategies.size(); ++s) {
              partials[cell.task][s].add(cell.trace(s), cell.totals(s),
                                         config.budget);
            }
            done[cell.task] = true;
            ++restored;
          });
      if (loaded.valid_end < loaded.file_size) {
        util::truncate_file(config.checkpoint_path, loaded.valid_end);
      }
    } else {
      util::write_file_atomic(config.checkpoint_path,
                              checkpoint::header(fingerprint));
    }
    checkpoint_out.open(config.checkpoint_path, config.durability);
    if (config.durability.mode == util::DurabilityPolicy::Mode::kGrouped) {
      util::log_info(
          "experiment: grouped durability — fsync every %u cells / %u ms "
          "(crash re-runs at most the last uncommitted group)",
          config.durability.group_cells, config.durability.group_ms);
    }
    if (restored > 0) {
      util::log_info("experiment: resumed %zu/%zu cells from %s", restored,
                     owned_tasks, config.checkpoint_path.c_str());
      report_progress(restored, 0.0, /*restored_cells=*/true);
    }
  }

  std::mutex failure_mutex;
  std::atomic<bool> stop{false};         // no new cells may start
  std::atomic<bool> interrupted{false};  // external stop observed
  // First checkpoint-I/O failure (ENOSPC, failed fsync, ...).  Unlike a
  // cell failure, losing the checkpoint stream is fail-stop: recording a
  // CellFailure and carrying on would silently drop durability for every
  // later cell.  The pool drains and the exception is rethrown to the
  // caller, who maps it to a dedicated exit code with a resume hint.
  std::exception_ptr io_failure;
  auto interrupt_requested = [&config]() -> bool {
    return config.interrupt_flag != nullptr && *config.interrupt_flag != 0;
  };

  // One instance per sample network, generated up front so runs can share
  // it (the factory owns all dataset-level randomness through the seed).
  // Samples whose cells are all checkpointed skip generation; a factory
  // that throws fails that sample's cells instead of the whole sweep.
  std::vector<std::optional<AccuInstance>> instances(config.samples);
  for (std::uint32_t sample = 0; sample < config.samples; ++sample) {
    if (interrupt_requested()) {
      interrupted.store(true, std::memory_order_release);
      stop.store(true, std::memory_order_release);
      break;
    }
    bool needed = false;
    for (std::uint32_t run = 0; run < config.runs; ++run) {
      needed |= !done[static_cast<std::size_t>(sample) * config.runs + run];
    }
    if (!needed) continue;
    try {
      instances[sample] =
          make_instance(sample, derive_seed(config.seed, sample));
      util::log_info("experiment: sample %u/%u generated (%.1fs elapsed)",
                     sample + 1, config.samples, timer.seconds());
    } catch (const std::exception& e) {
      result.failures.push_back(
          {sample, CellFailure::kAllRuns, CellFailure::Kind::kError, 1, 0.0,
           std::string("instance factory failed: ") + e.what()});
      util::log_warn("experiment: sample %u instance factory failed: %s",
                     sample, e.what());
    }
  }

  // Owned cells still to run per sample.  The last one to finish drops the
  // sample's instance — and with it the instance's artifact cache (score
  // pack, draw plan, static orders, ABM seed heaps) — so a sweep over many
  // samples does not hold every sample's tables until it ends.
  std::vector<std::atomic<std::uint32_t>> cells_left(config.samples);
  for (std::size_t task = 0; task < tasks; ++task) {
    if (!done[task]) cells_left[task / config.runs].fetch_add(1);
  }

  std::uint32_t workers = config.threads;
  if (workers == 0) workers = std::thread::hardware_concurrency();
  if (workers == 0) workers = 1;
  workers = static_cast<std::uint32_t>(
      std::min<std::size_t>(workers, owned_tasks == 0 ? 1 : owned_tasks));

  // Supervision state: one slot per worker holds the live attempt's cancel
  // token behind a mutex, so the watchdog can never cancel a stale token
  // that a later attempt is already reusing.
  struct CellSlot {
    std::mutex mu;
    std::shared_ptr<util::CancelToken> token;  // non-null while running
    std::chrono::steady_clock::time_point started{};
  };
  std::vector<CellSlot> slots(workers);
  std::atomic<std::uint32_t> cells_retried{0};

  // Per-worker reusable state: one SimWorkspace plus one long-lived strategy
  // set per thread, so a cell costs O(1) allocations instead of O(V+E).
  // Strategy::reset restores a fresh-construction state (tested), and the
  // retry decorator is re-keyed per cell, so reuse is byte-identical to the
  // old make-per-cell path.
  struct WorkerState {
    SimWorkspace ws;
    std::vector<std::unique_ptr<Strategy>> strategies;
    std::vector<RetryingStrategy*> retrying;  // non-null when wrapped
    std::vector<SimulationResult> outcomes;
    std::string block;  // checkpoint bytes of the worker's last cell
  };
  std::vector<WorkerState> worker_states(workers);
  std::uint32_t cell_threads = config.cell_threads;
  if (cell_threads == 0) cell_threads = std::thread::hardware_concurrency();
  if (cell_threads == 0) cell_threads = 1;
  for (WorkerState& worker : worker_states) {
    worker.ws.set_cell_threads(cell_threads);
  }

  const bool faulty = config.faults.total_rate() > 0.0;
  auto run_task = [&](std::size_t task, CellSlot& slot, WorkerState& worker) {
    if (worker.strategies.size() != strategies.size()) {
      worker.strategies.clear();
      worker.strategies.reserve(strategies.size());
      worker.retrying.assign(strategies.size(), nullptr);
      for (std::size_t s = 0; s < strategies.size(); ++s) {
        std::unique_ptr<Strategy> strategy = strategies[s].make();
        if (config.retry.kind != util::RetryKind::kNone) {
          auto wrapped = std::make_unique<RetryingStrategy>(
              std::move(strategy), config.retry);
          worker.retrying[s] = wrapped.get();
          strategy = std::move(wrapped);
        }
        worker.strategies.push_back(std::move(strategy));
      }
      worker.outcomes.resize(strategies.size());
    }
    const std::uint32_t sample =
        static_cast<std::uint32_t>(task / config.runs);
    const std::uint32_t run = static_cast<std::uint32_t>(task % config.runs);
    if (!instances[sample].has_value()) return;  // factory failure, reported
    const AccuInstance& instance = *instances[sample];
    const std::uint32_t max_attempts = config.max_cell_retries + 1;
    for (std::uint32_t attempt = 0; attempt < max_attempts; ++attempt) {
      auto token = std::make_shared<util::CancelToken>();
      if (config.cell_deadline_ms > 0) {
        token->set_deadline_after(
            std::chrono::milliseconds(config.cell_deadline_ms));
      }
      {
        const std::lock_guard<std::mutex> lock(slot.mu);
        slot.token = token;
        slot.started = std::chrono::steady_clock::now();
      }
      util::Timer attempt_timer;
      auto release_slot = [&slot] {
        const std::lock_guard<std::mutex> lock(slot.mu);
        slot.token.reset();
      };
      bool cell_done = false;
      try {
        // Retried attempts re-derive the policy/fault/retry streams from a
        // fresh tag; the ground truth below stays on the original stream so
        // every policy still faces the same realization (paired design).
        const std::uint64_t stream_base =
            attempt == 0 ? config.seed
                         : derive_seed(config.seed ^ kCellRetrySalt, attempt);
        // One ground truth per (sample, run), shared by every policy.  The
        // workspace re-draws it into pooled storage, draw-for-draw identical
        // to Realization::sample.
        util::Rng truth_rng(derive_seed(config.seed, sample, run + 1));
        const Realization& truth =
            worker.ws.sample_truth(instance, truth_rng);
        for (std::size_t s = 0; s < strategies.size(); ++s) {
          util::Rng policy_rng(
              derive_seed(stream_base, sample, run + 1, s + 1));
          Strategy& strategy = *worker.strategies[s];
          if (worker.retrying[s] != nullptr) {
            worker.retrying[s]->reseed(derive_seed(
                stream_base ^ kRetryStreamSalt, sample, run + 1, s + 1));
          }
          std::optional<FaultModel> faults;
          if (faulty) {
            faults.emplace(config.faults,
                           derive_seed(stream_base ^ kFaultStreamSalt, sample,
                                       run + 1, s + 1));
          }
          simulate_into(instance, truth, strategy, config.budget, policy_rng,
                        worker.ws.reset_view(instance), worker.ws,
                        worker.outcomes[s],
                        {.faults = faults ? &*faults : nullptr,
                         .cancel = token.get(),
                         .feedback = config.feedback});
          partials[task][s].add(worker.outcomes[s], config.budget);
        }
        release_slot();
        cell_done = true;
      } catch (const util::CancelledError& e) {
        release_slot();
        // A cancelled attempt never leaves a half-aggregated trace behind.
        for (std::size_t s = 0; s < strategies.size(); ++s) {
          partials[task][s] = TraceAggregator();
        }
        const double elapsed = attempt_timer.milliseconds();
        const bool deadline =
            e.reason() == util::CancelReason::kDeadline &&
            !interrupted.load(std::memory_order_acquire);
        if (deadline && attempt + 1 < max_attempts) {
          if (attempt == 0) {
            cells_retried.fetch_add(1, std::memory_order_relaxed);
          }
          util::log_warn(
              "experiment: cell (sample %u, run %u) exceeded its %ums "
              "deadline after %.0fms; retrying with a fresh seed stream "
              "(attempt %u of %u)",
              sample, run, config.cell_deadline_ms, elapsed, attempt + 2,
              max_attempts);
          continue;
        }
        CellFailure failure;
        failure.sample = sample;
        failure.run = run;
        failure.kind = deadline ? CellFailure::Kind::kDeadline
                                : CellFailure::Kind::kCancelled;
        failure.attempts = attempt + 1;
        failure.elapsed_ms = elapsed;
        failure.error = e.what();
        const std::lock_guard<std::mutex> lock(failure_mutex);
        result.failures.push_back(std::move(failure));
        return;
      } catch (const std::exception& e) {
        release_slot();
        // Surface the failure per cell instead of crashing the sweep; wipe
        // any half-filled partials so surviving cells aggregate cleanly.
        for (std::size_t s = 0; s < strategies.size(); ++s) {
          partials[task][s] = TraceAggregator();
        }
        CellFailure failure;
        failure.sample = sample;
        failure.run = run;
        failure.attempts = attempt + 1;
        failure.elapsed_ms = attempt_timer.milliseconds();
        failure.error = e.what();
        const std::lock_guard<std::mutex> lock(failure_mutex);
        result.failures.push_back(std::move(failure));
        return;
      }
      // Deliberately outside the per-cell catch: a checkpoint append that
      // throws (DiskFullError, a poisoned sync) is a durability loss, not
      // a cell failure — it propagates to the pool driver, which stops the
      // sweep and rethrows after the drain.
      if (cell_done) {
        if (checkpoint_out.is_open()) {
          checkpoint::serialize_cell(task, worker.outcomes, worker.block);
          const std::lock_guard<std::mutex> lock(checkpoint_mutex);
          checkpoint_out.append_record(worker.block);
        }
        report_progress(1, attempt_timer.milliseconds(),
                        /*restored_cells=*/false);
        return;
      }
    }
  };

  // Pool driver: runs one cell, converting a checkpoint-I/O exception into
  // a sweep-wide stop (worker threads must not leak exceptions).
  auto drive_task = [&](std::size_t task, CellSlot& slot,
                        WorkerState& worker) {
    if (done[task]) return;
    try {
      run_task(task, slot, worker);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(failure_mutex);
      if (!io_failure) io_failure = std::current_exception();
      stop.store(true, std::memory_order_release);
    }
    // Strategies and workspaces keep only non-owning pointers into the
    // instance, which their next reset replaces.
    const std::size_t sample = task / config.runs;
    if (cells_left[sample].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      instances[sample].reset();
    }
  };

  // Watchdog: polls the external interrupt flag and the per-slot clocks.
  // An interrupted sweep cancels every in-flight cell and claims no new
  // ones; a cell past its deadline is cancelled (the token's own deadline
  // check backs this up, so supervision works even if the watchdog lags).
  std::atomic<bool> watchdog_exit{false};
  std::thread watchdog;
  const bool supervised =
      config.cell_deadline_ms > 0 || config.interrupt_flag != nullptr;
  if (supervised) {
    watchdog = std::thread([&] {
      const auto deadline =
          std::chrono::milliseconds(config.cell_deadline_ms);
      while (!watchdog_exit.load(std::memory_order_acquire)) {
        if (interrupt_requested()) {
          if (!interrupted.exchange(true, std::memory_order_acq_rel)) {
            stop.store(true, std::memory_order_release);
            util::log_warn(
                "experiment: interrupt received — cancelling in-flight "
                "cells and flushing the checkpoint");
          }
          for (CellSlot& slot : slots) {
            const std::lock_guard<std::mutex> lock(slot.mu);
            if (slot.token) {
              slot.token->cancel(util::CancelReason::kInterrupt);
            }
          }
        }
        if (config.cell_deadline_ms > 0) {
          const auto now = std::chrono::steady_clock::now();
          for (CellSlot& slot : slots) {
            const std::lock_guard<std::mutex> lock(slot.mu);
            if (slot.token && now - slot.started >= deadline) {
              slot.token->cancel(util::CancelReason::kDeadline);
            }
          }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
  }

  if (workers <= 1) {
    for (std::size_t task = 0;
         task < tasks && !stop.load(std::memory_order_acquire); ++task) {
      drive_task(task, slots[0], worker_states[0]);
    }
  } else {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::uint32_t w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        for (std::size_t task = next.fetch_add(1); task < tasks;
             task = next.fetch_add(1)) {
          if (stop.load(std::memory_order_acquire)) break;
          drive_task(task, slots[w], worker_states[w]);
        }
      });
    }
    for (std::thread& worker : pool) worker.join();
  }
  if (watchdog.joinable()) {
    watchdog_exit.store(true, std::memory_order_release);
    watchdog.join();
  }
  // Forced flush on every exit path — normal completion, interrupt drain,
  // deadline, failure — so grouped durability never leaves an acknowledged
  // stop with unsynced cells.  A flush failure joins the fail-stop path
  // unless an earlier I/O failure is already recorded.
  if (checkpoint_out.is_open()) {
    try {
      checkpoint_out.flush();
    } catch (...) {
      const std::lock_guard<std::mutex> lock(failure_mutex);
      if (!io_failure) io_failure = std::current_exception();
    }
    checkpoint_out.close();
  }
  if (io_failure) {
    util::log_warn(
        "experiment: checkpoint I/O failed — stopping the sweep; the "
        "checkpoint on disk is a valid prefix, rerun with the same "
        "--checkpoint to resume once the cause is fixed");
    std::rethrow_exception(io_failure);
  }

  // Deterministic merge order: task-major, strategy-minor.
  for (std::size_t task = 0; task < tasks; ++task) {
    for (std::size_t s = 0; s < strategies.size(); ++s) {
      result.aggregates[s].merge(partials[task][s]);
    }
  }
  result.cells_retried = cells_retried.load(std::memory_order_relaxed);
  result.interrupted = interrupted.load(std::memory_order_acquire);
  if (result.interrupted) {
    util::log_warn(
        "experiment: sweep interrupted before completion%s",
        config.checkpoint_path.empty()
            ? " (no checkpoint configured: partial results are lost)"
            : "; completed cells are checkpointed — rerun with the same "
              "checkpoint to resume");
  }
  if (!result.failures.empty()) {
    util::log_warn("experiment: %zu of %zu cells failed (see "
                   "ExperimentResult::failures)",
                   result.failures.size(), tasks);
  }
  util::log_info("experiment: %zu cells × %zu strategies done in %.1fs",
                 owned_tasks, strategies.size(), timer.seconds());
  return result;
}

ShardMergeOutcome merge_shard_checkpoints(
    const std::vector<std::string>& paths,
    const std::string& merged_output_path) {
  if (paths.empty()) {
    throw InvalidArgument("merge_shard_checkpoints: no checkpoint files");
  }
  ShardMergeOutcome out;
  out.shard_cells.reserve(paths.size());
  checkpoint::Fingerprint base;
  bool have_base = false;
  // Pass 1 verifies every input and records, per task, where the first
  // valid copy of its block lives (first file wins; length 0 = missing).
  struct BlockRef {
    std::size_t file = 0;
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
  };
  std::vector<BlockRef> blocks;
  for (std::size_t file = 0; file < paths.size(); ++file) {
    checkpoint::Fingerprint parsed;
    std::size_t cells_here = 0;
    (void)checkpoint::load(
        paths[file], parsed,
        [&] {
          if (!have_base) {
            base = parsed;
            have_base = true;
            blocks.assign(base.tasks(), BlockRef{});
          } else {
            // Same experiment required; shard identities may differ and
            // may overlap (duplicates are deterministic, first copy wins).
            checkpoint::check_fingerprint(paths[file], parsed, base,
                                          /*check_shard=*/false);
          }
        },
        [&](const checkpoint::Cell& cell) {
          ++cells_here;
          BlockRef& ref = blocks[cell.task];
          if (ref.length > 0) {
            ++out.duplicate_cells;
            return;
          }
          ref = {file, cell.offset, cell.length};
          ++out.cells_merged;
        });
    out.shard_cells.push_back(cells_here);
  }

  out.config.budget = base.budget;
  out.config.samples = base.samples;
  out.config.runs = base.runs;
  out.config.seed = base.seed;
  out.config.faults = base.faults;
  out.config.retry = base.retry;
  out.config.feedback = base.feedback;
  out.result.strategy_names = base.names;
  out.result.aggregates.resize(base.names.size());

  // Pass 2, in task order: copy each winning block's bytes into the
  // merged file as they are — an ordinary unsharded checkpoint under a
  // shard 0/1 header, resumable by run_experiment — and fold it through
  // one cleared partial per strategy, then merge task-major /
  // strategy-minor: run_experiment's exact operation sequence, hence
  // bit-identical aggregates when no cell is missing.
  util::AtomicFileWriter merged;
  if (!merged_output_path.empty()) {
    checkpoint::Fingerprint merged_fp = base;
    merged_fp.shard_index = 0;
    merged_fp.shard_count = 1;
    merged.open(merged_output_path);
    merged.append(checkpoint::header(merged_fp));
  }
  checkpoint::BlockReader reader(paths);
  checkpoint::Cell cell;
  std::vector<TraceAggregator> partials(base.names.size());
  for (const BlockRef& ref : blocks) {
    if (ref.length == 0) {
      ++out.cells_missing;
      continue;
    }
    const std::string_view bytes =
        reader.read(ref.file, ref.offset, ref.length, base, cell);
    if (merged.is_open()) merged.append(bytes);
    for (std::size_t s = 0; s < partials.size(); ++s) {
      partials[s].clear();
      partials[s].add(cell.trace(s), cell.totals(s), base.budget);
      out.result.aggregates[s].merge(partials[s]);
    }
  }
  if (merged.is_open()) merged.commit();
  if (out.cells_missing > 0) {
    util::log_warn(
        "merge: %zu of %zu grid cells missing from the inputs — run the "
        "absent shards (or resume the torn ones) and re-merge",
        out.cells_missing, blocks.size());
  }
  return out;
}

}  // namespace accu
