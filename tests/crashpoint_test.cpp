// Crash-point enumeration: the durability control plane's acceptance test.
//
// For a small direct sweep and an in-process served job, simulate a power
// loss at *every* durable-op boundary (open / write / fsync / rename /
// dir-fsync) under both durability modes, then recover against the
// materialized crash state and assert the resumed run's final report is
// bit-identical to an uninterrupted run.  Scripted ENOSPC and fsync
// failures must additionally fail-stop with their dedicated exit codes /
// exception types while leaving a resumable checkpoint behind.
//
// The daemon-process variant of this property (kill -9 between daemon
// sessions) lives in tools/ci.sh; here the served job runs in-process via
// run_job_shard + merge so every boundary is enumerable deterministically.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/instance_io.hpp"
#include "core/report.hpp"
#include "core/strategies/abm.hpp"
#include "core/strategies/baselines.hpp"
#include "datasets/datasets.hpp"
#include "serve/job.hpp"
#include "util/error.hpp"
#include "util/exit_codes.hpp"
#include "util/io_env.hpp"
#include "test_paths.hpp"

#ifdef ACCU_HAVE_POSIX_IO

namespace accu {
namespace {

using test::fresh_dir;
using test::temp_path;

InstanceFactory tiny_factory() {
  return [](std::uint32_t sample, std::uint64_t seed) {
    util::Rng rng(seed + sample);
    datasets::DatasetConfig config;
    config.scale = 0.03;
    config.num_cautious = 5;
    return datasets::make_dataset("facebook", config, rng);
  };
}

std::vector<StrategyFactory> two_strategies() {
  return {
      {"ABM", [] { return std::make_unique<AbmStrategy>(0.5, 0.5); }},
      {"Random", [] { return std::make_unique<RandomStrategy>(); }},
  };
}

util::DurabilityPolicy policy_for(util::DurabilityPolicy::Mode mode) {
  util::DurabilityPolicy policy;
  policy.mode = mode;
  policy.group_cells = 3;
  // Keep the time bound out of the way: the op sequence must be identical
  // across enumeration passes, so only the cell bound may trigger syncs.
  policy.group_ms = 600000;
  return policy;
}

ExperimentConfig direct_config(util::DurabilityPolicy::Mode mode,
                               const std::string& checkpoint) {
  ExperimentConfig config;
  config.budget = 8;
  config.samples = 2;
  config.runs = 2;
  config.seed = 7;
  config.threads = 1;
  config.checkpoint_path = checkpoint;
  config.durability = policy_for(mode);
  return config;
}

std::string report_of(const ExperimentResult& result,
                      const ExperimentConfig& config) {
  std::ostringstream os;
  ReportOptions options;
  options.title = "crashpoint";
  write_markdown_report(result, config, os, options);
  return os.str();
}

/// Reference report for the direct sweep: one uninterrupted run.
std::string direct_reference(util::DurabilityPolicy::Mode mode) {
  const std::string dir = fresh_dir("crashpoint_ref");
  const ExperimentConfig config = direct_config(mode, dir + "/sweep.ckpt");
  const ExperimentResult result =
      run_experiment(tiny_factory(), two_strategies(), config);
  EXPECT_TRUE(result.failures.empty());
  return report_of(result, config);
}

void enumerate_direct(util::DurabilityPolicy::Mode mode) {
  const std::string reference = direct_reference(mode);

  // Pass 1: count the durable-op boundaries of a clean run.
  std::uint64_t total_ops = 0;
  {
    const std::string dir = fresh_dir("crashpoint_probe");
    util::FaultyFs probe;
    util::ScopedIoEnv scoped(probe);
    const ExperimentConfig config = direct_config(mode, dir + "/sweep.ckpt");
    (void)run_experiment(tiny_factory(), two_strategies(), config);
    total_ops = probe.op_count();
  }
  ASSERT_GE(total_ops, 8u);

  // Pass 2: crash at every boundary, recover, resume, compare.
  for (std::uint64_t k = 1; k <= total_ops; ++k) {
    const std::string dir = fresh_dir("crashpoint_direct");
    const std::string ckpt = dir + "/sweep.ckpt";
    const ExperimentConfig config = direct_config(mode, ckpt);
    util::FaultyFs faulty;
    {
      util::ScopedIoEnv scoped(faulty);
      faulty.crash_at(k);
      EXPECT_THROW(
          (void)run_experiment(tiny_factory(), two_strategies(), config),
          IoError)
          << "mode " << config.durability.mode_name() << " crash op " << k;
      faulty.materialize_crash_state();
    }
    // Recovery under the real environment: load → truncate-to-valid-prefix
    // → resume → identical report.
    const ExperimentResult resumed =
        run_experiment(tiny_factory(), two_strategies(), config);
    EXPECT_TRUE(resumed.failures.empty()) << "crash op " << k;
    EXPECT_EQ(report_of(resumed, config), reference)
        << "mode " << config.durability.mode_name() << " crash op " << k;
  }
}

TEST(CrashPointTest, DirectSweepStrictSurvivesEveryBoundary) {
  enumerate_direct(util::DurabilityPolicy::Mode::kStrict);
}

TEST(CrashPointTest, DirectSweepGroupedSurvivesEveryBoundary) {
  enumerate_direct(util::DurabilityPolicy::Mode::kGrouped);
}

// ---------------------------------------------------------------------------
// Served job (in-process shard runner + merge + report).

serve::JobSpec served_spec(const std::string& instance_path,
                           const char* durability) {
  serve::JobSpec spec;
  spec.kind = "compare";
  spec.instance = instance_path;
  spec.budget = 5;
  spec.runs = 3;
  spec.seed = 11;
  spec.threads = 1;
  spec.durability = durability;
  spec.group_cells = 2;
  spec.group_ms = 600000;
  return spec;
}

std::string served_report(const std::string& job_dir) {
  const ShardMergeOutcome merged = merge_shard_checkpoints(
      {job_dir + "/shard0.ckpt"}, job_dir + "/merged.ckpt");
  EXPECT_EQ(merged.cells_missing, 0u);
  return report_of(merged.result, merged.config);
}

void enumerate_served(const char* durability) {
  const std::string instance_path =
      temp_path("crashpoint_instance.accu");
  {
    util::Rng rng(3);
    datasets::DatasetConfig config;
    config.scale = 0.03;
    config.num_cautious = 5;
    write_instance_file(datasets::make_dataset("facebook", config, rng),
                        instance_path);
  }
  const serve::JobSpec spec = served_spec(instance_path, durability);

  std::string reference;
  {
    const std::string dir = fresh_dir("crashpoint_served_ref");
    ASSERT_EQ(run_job_shard(spec, dir, 0, 1, nullptr),
              util::exit_code::kOk);
    reference = served_report(dir);
  }

  std::uint64_t total_ops = 0;
  {
    const std::string dir = fresh_dir("crashpoint_served_probe");
    util::FaultyFs probe;
    util::ScopedIoEnv scoped(probe);
    ASSERT_EQ(run_job_shard(spec, dir, 0, 1, nullptr),
              util::exit_code::kOk);
    total_ops = probe.op_count();
  }
  ASSERT_GE(total_ops, 8u);

  // The shard's op sequence includes throttled (wall-clock dependent)
  // progress writes, so a crash index may land past the ops a given run
  // performs — that run then completes cleanly, which is fine: the
  // property under test is that *whatever* the boundary hit, recovery
  // converges to the reference report.
  for (std::uint64_t k = 1; k <= total_ops; ++k) {
    const std::string dir = fresh_dir("crashpoint_served");
    util::FaultyFs faulty;
    int rc;
    {
      util::ScopedIoEnv scoped(faulty);
      faulty.crash_at(k);
      rc = run_job_shard(spec, dir, 0, 1, nullptr);
      faulty.materialize_crash_state();
    }
    if (rc != util::exit_code::kOk) {
      EXPECT_EQ(run_job_shard(spec, dir, 0, 1, nullptr),
                util::exit_code::kOk)
          << durability << " crash op " << k;
    }
    EXPECT_EQ(served_report(dir), reference)
        << durability << " crash op " << k;
  }
}

TEST(CrashPointTest, ServedJobStrictSurvivesEveryBoundary) {
  enumerate_served("strict");
}

TEST(CrashPointTest, ServedJobGroupedSurvivesEveryBoundary) {
  enumerate_served("grouped");
}

// ---------------------------------------------------------------------------
// Dedicated failure codes: ENOSPC and fsyncgate fail-stop, resumably.

TEST(CrashPointTest, EnospcFailsStopWithDedicatedCodeAndResumes) {
  const std::string reference =
      direct_reference(util::DurabilityPolicy::Mode::kStrict);
  const std::string dir = fresh_dir("crashpoint_enospc");
  const ExperimentConfig config =
      direct_config(util::DurabilityPolicy::Mode::kStrict,
                    dir + "/sweep.ckpt");
  util::FaultyFs faulty;
  {
    util::ScopedIoEnv scoped(faulty);
    // Enough budget for the header and a few cells, then the disk fills.
    faulty.disk_budget(256);
    EXPECT_THROW(
        (void)run_experiment(tiny_factory(), two_strategies(), config),
        DiskFullError);
    faulty.materialize_crash_state();
  }
  const ExperimentResult resumed =
      run_experiment(tiny_factory(), two_strategies(), config);
  EXPECT_TRUE(resumed.failures.empty());
  EXPECT_EQ(report_of(resumed, config), reference);
}

TEST(CrashPointTest, FsyncFailureFailsStopWithDedicatedCodeAndResumes) {
  const std::string reference =
      direct_reference(util::DurabilityPolicy::Mode::kStrict);
  const std::string dir = fresh_dir("crashpoint_fsyncgate");
  const ExperimentConfig config =
      direct_config(util::DurabilityPolicy::Mode::kStrict,
                    dir + "/sweep.ckpt");
  util::FaultyFs faulty;
  {
    util::ScopedIoEnv scoped(faulty);
    faulty.fail_fsync(5);  // mid-run: past the header, before the last cell
    EXPECT_THROW(
        (void)run_experiment(tiny_factory(), two_strategies(), config),
        SyncFailedError);
    faulty.materialize_crash_state();
  }
  const ExperimentResult resumed =
      run_experiment(tiny_factory(), two_strategies(), config);
  EXPECT_TRUE(resumed.failures.empty());
  EXPECT_EQ(report_of(resumed, config), reference);
}

TEST(CrashPointTest, ServedShardMapsIoFailuresToDedicatedExitCodes) {
  const std::string instance_path =
      temp_path("crashpoint_codes_instance.accu");
  {
    util::Rng rng(3);
    datasets::DatasetConfig config;
    config.scale = 0.03;
    config.num_cautious = 5;
    write_instance_file(datasets::make_dataset("facebook", config, rng),
                        instance_path);
  }
  const serve::JobSpec spec = served_spec(instance_path, "strict");
  {
    const std::string dir = fresh_dir("crashpoint_codes_enospc");
    util::FaultyFs faulty;
    util::ScopedIoEnv scoped(faulty);
    faulty.disk_budget(512);
    EXPECT_EQ(run_job_shard(spec, dir, 0, 1, nullptr),
              util::exit_code::kDiskFull);
  }
  {
    const std::string dir = fresh_dir("crashpoint_codes_sync");
    util::FaultyFs faulty;
    util::ScopedIoEnv scoped(faulty);
    faulty.fail_fsync(4);
    EXPECT_EQ(run_job_shard(spec, dir, 0, 1, nullptr),
              util::exit_code::kSyncLost);
  }
}

}  // namespace
}  // namespace accu

#endif  // ACCU_HAVE_POSIX_IO
