// Integration tests for the supervised experiment runner: per-cell
// wall-clock deadlines (watchdog cancellation + deterministic retries),
// interrupt-flag stops, and the crash headline — a sweep SIGKILLed mid-run
// resumes from its checkpoint to bit-identical aggregates.

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>

#include "core/experiment.hpp"
#include "core/strategies/baselines.hpp"
#include "datasets/datasets.hpp"
#include "test_paths.hpp"

// Written by the forked child's SIGTERM handler, polled by the watchdog —
// the same arrangement the CLI uses.
volatile std::sig_atomic_t g_resilience_stop = 0;

extern "C" void resilience_stop_handler(int) { g_resilience_stop = 1; }

namespace accu {
namespace {

using test::temp_path;

/// Deterministic strategy that takes a configurable wall-clock time per
/// request: scans node ids in order, sleeping before each selection.  It
/// consumes no randomness, so its results do not depend on timing at all —
/// only on which cells were allowed to finish.
class SlowScanStrategy : public Strategy {
 public:
  explicit SlowScanStrategy(std::chrono::milliseconds per_select)
      : per_select_(per_select) {}

  void reset(const AccuInstance& instance, util::Rng&) override {
    num_nodes_ = instance.num_nodes();
    cursor_ = 0;
  }

  NodeId select(const AttackerView& view, util::Rng&) override {
    std::this_thread::sleep_for(per_select_);
    while (cursor_ < num_nodes_ && view.is_requested(cursor_)) ++cursor_;
    return cursor_ < num_nodes_ ? cursor_++ : kInvalidNode;
  }

  [[nodiscard]] std::string name() const override { return "SlowScan"; }

 private:
  std::chrono::milliseconds per_select_;
  NodeId num_nodes_ = 0;
  NodeId cursor_ = 0;
};

InstanceFactory tiny_factory() {
  return [](std::uint32_t sample, std::uint64_t seed) {
    util::Rng rng(seed + sample);
    datasets::DatasetConfig config;
    config.scale = 0.05;
    config.num_cautious = 8;
    return datasets::make_dataset("facebook", config, rng);
  };
}

std::vector<StrategyFactory> fast_roster() {
  return {
      {"MaxDegree", [] { return std::make_unique<MaxDegreeStrategy>(); }},
      {"Random", [] { return std::make_unique<RandomStrategy>(); }},
  };
}

std::vector<StrategyFactory> slow_roster(std::chrono::milliseconds delay) {
  return {{"SlowScan", [delay] {
             return std::make_unique<SlowScanStrategy>(delay);
           }}};
}

/// Exact equality of every aggregate — the resilience guarantee is
/// bit-identity with an undisturbed sweep, not closeness.
void expect_identical_results(const ExperimentResult& a,
                              const ExperimentResult& b) {
  ASSERT_EQ(a.strategy_names, b.strategy_names);
  for (std::size_t s = 0; s < a.aggregates.size(); ++s) {
    const TraceAggregator& x = a.aggregates[s];
    const TraceAggregator& y = b.aggregates[s];
    SCOPED_TRACE(a.strategy_names[s]);
    EXPECT_EQ(x.total_benefit().count(), y.total_benefit().count());
    EXPECT_EQ(x.total_benefit().mean(), y.total_benefit().mean());
    EXPECT_EQ(x.total_benefit().variance(), y.total_benefit().variance());
    EXPECT_EQ(x.cautious_friends().mean(), y.cautious_friends().mean());
    EXPECT_EQ(x.accepted_requests().mean(), y.accepted_requests().mean());
    EXPECT_EQ(x.faulted_requests().mean(), y.faulted_requests().mean());
    EXPECT_EQ(x.retries().mean(), y.retries().mean());
    EXPECT_EQ(x.abandoned_targets().mean(), y.abandoned_targets().mean());
    ASSERT_EQ(x.cumulative_benefit().length(),
              y.cumulative_benefit().length());
    for (std::size_t i = 0; i < x.cumulative_benefit().length(); ++i) {
      EXPECT_EQ(x.cumulative_benefit().at(i).mean(),
                y.cumulative_benefit().at(i).mean())
          << "index " << i;
      EXPECT_EQ(x.marginal().at(i).mean(), y.marginal().at(i).mean());
      EXPECT_EQ(x.cautious_fraction().at(i).mean(),
                y.cautious_fraction().at(i).mean());
    }
  }
}

ExperimentConfig slow_config() {
  ExperimentConfig config;
  config.budget = 5;
  config.samples = 1;
  config.runs = 2;
  config.seed = 53;
  return config;
}

TEST(ResilienceTest, DeadlineExceededCellsAreCancelledAndReported) {
  ExperimentConfig config = slow_config();
  config.cell_deadline_ms = 25;  // each cell needs ~100ms of sleeping
  const ExperimentResult result = run_experiment(
      tiny_factory(), slow_roster(std::chrono::milliseconds(20)), config);
  ASSERT_EQ(result.failures.size(), 2u);
  for (const CellFailure& failure : result.failures) {
    EXPECT_EQ(failure.kind, CellFailure::Kind::kDeadline);
    EXPECT_EQ(failure.attempts, 1u);
    EXPECT_GT(failure.elapsed_ms, 0.0);
  }
  EXPECT_EQ(result.cells_retried, 0u);
  EXPECT_FALSE(result.interrupted);
  // Cancelled cells contribute nothing: no partial traces in aggregates.
  EXPECT_EQ(result.aggregates[0].total_benefit().count(), 0u);
  EXPECT_STREQ(cell_failure_kind_name(CellFailure::Kind::kDeadline),
               "deadline");
}

TEST(ResilienceTest, DeadlineRetriesAreDeterministicAcrossThreadCounts) {
  auto run_with_threads = [](std::uint32_t threads) {
    ExperimentConfig config = slow_config();
    config.cell_deadline_ms = 25;
    config.max_cell_retries = 2;
    config.threads = threads;
    return run_experiment(tiny_factory(),
                          slow_roster(std::chrono::milliseconds(20)), config);
  };
  const ExperimentResult sequential = run_with_threads(1);
  const ExperimentResult pooled = run_with_threads(2);

  auto failure_set = [](const ExperimentResult& result) {
    std::vector<std::tuple<std::uint32_t, std::uint32_t, CellFailure::Kind,
                           std::uint32_t>>
        set;
    for (const CellFailure& f : result.failures) {
      set.emplace_back(f.sample, f.run, f.kind, f.attempts);
    }
    std::sort(set.begin(), set.end());
    return set;
  };
  ASSERT_EQ(sequential.failures.size(), 2u);
  for (const CellFailure& failure : sequential.failures) {
    EXPECT_EQ(failure.kind, CellFailure::Kind::kDeadline);
    EXPECT_EQ(failure.attempts, 3u);  // 1 original + 2 retries, all too slow
  }
  EXPECT_EQ(sequential.cells_retried, 2u);  // each cell counts once
  EXPECT_EQ(failure_set(sequential), failure_set(pooled));
  EXPECT_EQ(sequential.cells_retried, pooled.cells_retried);
}

TEST(ResilienceTest, GenerousDeadlineLeavesResultsBitIdentical) {
  ExperimentConfig plain;
  plain.budget = 20;
  plain.samples = 1;
  plain.runs = 3;
  plain.seed = 59;
  plain.faults = FaultConfig::uniform(0.2);
  plain.retry = util::RetryPolicy::exponential_jitter(2);
  const ExperimentResult unsupervised =
      run_experiment(tiny_factory(), fast_roster(), plain);

  ExperimentConfig supervised = plain;
  supervised.cell_deadline_ms = 60000;  // never binds
  supervised.max_cell_retries = 2;
  const ExperimentResult result =
      run_experiment(tiny_factory(), fast_roster(), supervised);
  EXPECT_TRUE(result.failures.empty());
  EXPECT_EQ(result.cells_retried, 0u);
  // Supervision consumes no randomness: attempt 0 draws the exact same
  // seed streams as an unsupervised sweep.
  expect_identical_results(unsupervised, result);
}

TEST(ResilienceTest, PresetInterruptFlagStopsBeforeAnyCell) {
  static volatile std::sig_atomic_t flag = 1;
  ExperimentConfig config = slow_config();
  config.interrupt_flag = &flag;
  const ExperimentResult result = run_experiment(
      tiny_factory(), slow_roster(std::chrono::milliseconds(1)), config);
  EXPECT_TRUE(result.interrupted);
  EXPECT_EQ(result.aggregates[0].total_benefit().count(), 0u);
}

TEST(ResilienceTest, InterruptedCheckpointedSweepResumesToCompletion) {
  const ExperimentConfig plain = slow_config();
  const ExperimentResult uninterrupted = run_experiment(
      tiny_factory(), slow_roster(std::chrono::milliseconds(1)), plain);

  static volatile std::sig_atomic_t flag = 1;
  ExperimentConfig interrupted_config = plain;
  interrupted_config.checkpoint_path = temp_path("accu_resil_interrupt.txt");
  interrupted_config.interrupt_flag = &flag;
  const ExperimentResult stopped = run_experiment(
      tiny_factory(), slow_roster(std::chrono::milliseconds(1)),
      interrupted_config);
  EXPECT_TRUE(stopped.interrupted);

  ExperimentConfig resume_config = interrupted_config;
  resume_config.interrupt_flag = nullptr;
  const ExperimentResult resumed = run_experiment(
      tiny_factory(), slow_roster(std::chrono::milliseconds(1)),
      resume_config);
  EXPECT_FALSE(resumed.interrupted);
  expect_identical_results(uninterrupted, resumed);
}

// The headline crash test: fork a sweep, SIGKILL it mid-flight (no chance
// to flush or unwind), and assert that resuming from whatever checkpoint
// bytes survived reproduces the uninterrupted aggregates exactly.
TEST(ResilienceTest, SigkillMidSweepResumesBitIdentically) {
  ExperimentConfig config;
  config.budget = 6;
  config.samples = 1;
  config.runs = 10;
  config.seed = 61;
  const InstanceFactory factory = tiny_factory();
  const std::vector<StrategyFactory> roster =
      slow_roster(std::chrono::milliseconds(2));
  const ExperimentResult uninterrupted =
      run_experiment(factory, roster, config);

  ExperimentConfig checkpointed = config;
  checkpointed.checkpoint_path = temp_path("accu_resil_sigkill.txt");
  const pid_t pid = fork();
  ASSERT_NE(pid, -1) << "fork failed";
  if (pid == 0) {
    // Child: run the sweep until the parent kills us.  _exit (not exit):
    // a SIGKILL leaves no cleanup anyway, and the early-finish path must
    // not flush the parent's duplicated stdio buffers.
    (void)run_experiment(factory, roster, checkpointed);
    _exit(0);
  }
  // Let the child complete a few cells (~12ms each), then kill it without
  // warning — possibly mid-checkpoint-append.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  kill(pid, SIGKILL);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);

  const ExperimentResult resumed =
      run_experiment(factory, roster, checkpointed);
  expect_identical_results(uninterrupted, resumed);

  // And the checkpoint is now complete: a further resume replays
  // everything from disk, still bit-identically.
  const ExperimentResult replayed =
      run_experiment(factory, roster, checkpointed);
  expect_identical_results(uninterrupted, replayed);
}

// Graceful variant: SIGTERM is caught by a handler that sets the interrupt
// flag (the CLI arrangement); the child stops at cell granularity with the
// checkpoint flushed, and the parent resumes to completion.
TEST(ResilienceTest, SigtermStopsGracefullyAndResumeCompletes) {
  ExperimentConfig config;
  config.budget = 6;
  config.samples = 1;
  config.runs = 10;
  config.seed = 67;
  const InstanceFactory factory = tiny_factory();
  const std::vector<StrategyFactory> roster =
      slow_roster(std::chrono::milliseconds(2));
  const ExperimentResult uninterrupted =
      run_experiment(factory, roster, config);

  ExperimentConfig checkpointed = config;
  checkpointed.checkpoint_path = temp_path("accu_resil_sigterm.txt");
  const pid_t pid = fork();
  ASSERT_NE(pid, -1) << "fork failed";
  if (pid == 0) {
    std::signal(SIGTERM, resilience_stop_handler);
    ExperimentConfig supervised = checkpointed;
    supervised.interrupt_flag = &g_resilience_stop;
    const ExperimentResult r = run_experiment(factory, roster, supervised);
    _exit(r.interrupted ? 42 : 0);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  kill(pid, SIGTERM);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  // 42 = stopped mid-sweep; 0 = the sweep won the race and finished.
  // Either way the checkpoint must resume to the exact same aggregates.
  EXPECT_TRUE(WEXITSTATUS(status) == 42 || WEXITSTATUS(status) == 0)
      << "child exit status " << WEXITSTATUS(status);

  const ExperimentResult resumed =
      run_experiment(factory, roster, checkpointed);
  expect_identical_results(uninterrupted, resumed);
}

}  // namespace
}  // namespace accu
