// Tests for the experiment checkpoint: a killed-and-resumed sweep must
// reproduce the uninterrupted aggregates exactly (bit-identical), a
// truncated trailing block is discarded rather than corrupting the resume,
// and a checkpoint from a different experiment is rejected.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "core/experiment.hpp"
#include "core/strategies/abm.hpp"
#include "core/strategies/baselines.hpp"
#include "datasets/datasets.hpp"
#include "test_paths.hpp"

namespace accu {
namespace {

using test::temp_path;

InstanceFactory tiny_factory() {
  return [](std::uint32_t sample, std::uint64_t seed) {
    util::Rng rng(seed + sample);
    datasets::DatasetConfig config;
    config.scale = 0.05;
    config.num_cautious = 8;
    return datasets::make_dataset("facebook", config, rng);
  };
}

std::vector<StrategyFactory> two_strategies() {
  return {
      {"ABM", [] { return std::make_unique<AbmStrategy>(0.5, 0.5); }},
      {"Random", [] { return std::make_unique<RandomStrategy>(); }},
  };
}

ExperimentConfig base_config() {
  ExperimentConfig config;
  config.budget = 20;
  config.samples = 2;
  config.runs = 3;
  config.seed = 31;
  config.faults = FaultConfig::uniform(0.2);
  config.retry = util::RetryPolicy::exponential_jitter(2);
  return config;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream out;
  out << is.rdbuf();
  return out.str();
}

/// Exact equality of every aggregate the harness produces — the resume
/// guarantee is bit-identity, not closeness.
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
    EXPECT_EQ(x.suspended_rounds().mean(), y.suspended_rounds().mean());
    EXPECT_EQ(x.abandoned_targets().mean(), y.abandoned_targets().mean());
    ASSERT_EQ(x.cumulative_benefit().length(),
              y.cumulative_benefit().length());
    for (std::size_t i = 0; i < x.cumulative_benefit().length(); ++i) {
      EXPECT_EQ(x.cumulative_benefit().at(i).mean(),
                y.cumulative_benefit().at(i).mean())
          << "index " << i;
      EXPECT_EQ(x.marginal().at(i).mean(), y.marginal().at(i).mean());
      EXPECT_EQ(x.marginal_cautious().at(i).mean(),
                y.marginal_cautious().at(i).mean());
      EXPECT_EQ(x.cautious_fraction().at(i).mean(),
                y.cautious_fraction().at(i).mean());
    }
  }
}

TEST(CheckpointTest, FullCheckpointReloadsBitIdentically) {
  const ExperimentConfig plain = base_config();
  const ExperimentResult uninterrupted =
      run_experiment(tiny_factory(), two_strategies(), plain);

  ExperimentConfig with_checkpoint = plain;
  with_checkpoint.checkpoint_path = temp_path("accu_ckpt_full.txt");
  const ExperimentResult first =
      run_experiment(tiny_factory(), two_strategies(), with_checkpoint);
  expect_identical_results(uninterrupted, first);

  // Second invocation restores every cell from the file; simulations never
  // re-run, aggregates must not drift by a single bit.
  const ExperimentResult resumed =
      run_experiment(tiny_factory(), two_strategies(), with_checkpoint);
  expect_identical_results(uninterrupted, resumed);
}

TEST(CheckpointTest, PartialCheckpointResumesExactly) {
  const ExperimentConfig plain = base_config();
  const ExperimentResult uninterrupted =
      run_experiment(tiny_factory(), two_strategies(), plain);

  // Simulate a kill: keep the header and the first two completed blocks.
  ExperimentConfig with_checkpoint = plain;
  with_checkpoint.checkpoint_path = temp_path("accu_ckpt_partial.txt");
  (void)run_experiment(tiny_factory(), two_strategies(), with_checkpoint);
  const std::string full = read_file(with_checkpoint.checkpoint_path);
  std::size_t cut = full.find("\nend ");
  ASSERT_NE(cut, std::string::npos);
  cut = full.find("\nend ", cut + 1);
  ASSERT_NE(cut, std::string::npos);
  cut = full.find('\n', cut + 1);  // end of the second `end` line
  ASSERT_NE(cut, std::string::npos);
  {
    std::ofstream os(with_checkpoint.checkpoint_path, std::ios::trunc);
    os << full.substr(0, cut + 1);
  }
  const ExperimentResult resumed =
      run_experiment(tiny_factory(), two_strategies(), with_checkpoint);
  expect_identical_results(uninterrupted, resumed);
}

TEST(CheckpointTest, TruncatedTrailingBlockIsDiscarded) {
  const ExperimentConfig plain = base_config();
  const ExperimentResult uninterrupted =
      run_experiment(tiny_factory(), two_strategies(), plain);

  // Kill mid-write: the last kept block loses its `end` line and half its
  // trace lines.
  ExperimentConfig with_checkpoint = plain;
  with_checkpoint.checkpoint_path = temp_path("accu_ckpt_torn.txt");
  (void)run_experiment(tiny_factory(), two_strategies(), with_checkpoint);
  const std::string full = read_file(with_checkpoint.checkpoint_path);
  const std::size_t first_end = full.find("\nend ");
  ASSERT_NE(first_end, std::string::npos);
  const std::size_t second_begin = full.find("begin ", first_end);
  ASSERT_NE(second_begin, std::string::npos);
  // Keep block 1 plus a torn prefix of block 2.
  const std::size_t tear = full.find("\nt ", second_begin);
  ASSERT_NE(tear, std::string::npos);
  {
    std::ofstream os(with_checkpoint.checkpoint_path, std::ios::trunc);
    os << full.substr(0, tear + 5);  // mid trace line
  }
  const ExperimentResult resumed =
      run_experiment(tiny_factory(), two_strategies(), with_checkpoint);
  expect_identical_results(uninterrupted, resumed);
}

TEST(CheckpointTest, MismatchedExperimentIsRejected) {
  ExperimentConfig config = base_config();
  config.checkpoint_path = temp_path("accu_ckpt_mismatch.txt");
  (void)run_experiment(tiny_factory(), two_strategies(), config);
  config.seed += 1;  // different experiment, same file
  EXPECT_THROW(run_experiment(tiny_factory(), two_strategies(), config),
               IoError);
  config.seed -= 1;
  config.faults.drop_rate += 0.01;  // different fault layer
  EXPECT_THROW(run_experiment(tiny_factory(), two_strategies(), config),
               IoError);
}

TEST(CheckpointTest, CheckpointFilesCarryVersionTwoCrcTrailers) {
  ExperimentConfig config = base_config();
  config.checkpoint_path = temp_path("accu_ckpt_v2_format.txt");
  (void)run_experiment(tiny_factory(), two_strategies(), config);
  const std::string full = read_file(config.checkpoint_path);
  EXPECT_EQ(full.rfind("# accu-checkpoint v2", 0), 0u);
  // Every cell block ends with a `crc <task> <hex>` trailer.
  std::size_t begins = 0, crcs = 0, pos = 0;
  while ((pos = full.find("\nbegin ", pos)) != std::string::npos) {
    ++begins;
    ++pos;
  }
  pos = 0;
  while ((pos = full.find("\ncrc ", pos)) != std::string::npos) {
    ++crcs;
    ++pos;
  }
  EXPECT_EQ(begins, static_cast<std::size_t>(config.samples) * config.runs);
  EXPECT_EQ(crcs, begins);
}

TEST(CheckpointTest, CorruptedCrcByteDropsTheTailAndResumesExactly) {
  const ExperimentConfig plain = base_config();
  const ExperimentResult uninterrupted =
      run_experiment(tiny_factory(), two_strategies(), plain);

  // Flip one hex digit in the *last* block's CRC trailer: the block no
  // longer verifies, so the loader must drop it (and only it) and the
  // resumed sweep re-runs that cell to the same bits.
  ExperimentConfig with_checkpoint = plain;
  with_checkpoint.checkpoint_path = temp_path("accu_ckpt_crcflip.txt");
  (void)run_experiment(tiny_factory(), two_strategies(), with_checkpoint);
  std::string full = read_file(with_checkpoint.checkpoint_path);
  const std::size_t last_crc = full.rfind("\ncrc ");
  ASSERT_NE(last_crc, std::string::npos);
  const std::size_t digit = full.find_last_not_of("\n");
  ASSERT_GT(digit, last_crc);
  full[digit] = full[digit] == '0' ? '1' : '0';
  {
    std::ofstream os(with_checkpoint.checkpoint_path, std::ios::trunc);
    os << full;
  }
  const ExperimentResult resumed =
      run_experiment(tiny_factory(), two_strategies(), with_checkpoint);
  expect_identical_results(uninterrupted, resumed);
}

TEST(CheckpointTest, CorruptedTraceByteFailsTheCrcAndResumesExactly) {
  const ExperimentConfig plain = base_config();
  const ExperimentResult uninterrupted =
      run_experiment(tiny_factory(), two_strategies(), plain);

  // Corrupt a data byte inside the last block while keeping the line
  // parseable: without the CRC trailer this silent bit-rot would poison
  // the resumed aggregates.
  ExperimentConfig with_checkpoint = plain;
  with_checkpoint.checkpoint_path = temp_path("accu_ckpt_bitrot.txt");
  (void)run_experiment(tiny_factory(), two_strategies(), with_checkpoint);
  std::string full = read_file(with_checkpoint.checkpoint_path);
  const std::size_t last_begin = full.rfind("\nbegin ");
  ASSERT_NE(last_begin, std::string::npos);
  const std::size_t t_line = full.find("\nt ", last_begin);
  ASSERT_NE(t_line, std::string::npos);
  char& target_digit = full[t_line + 5];  // first digit of the target id
  ASSERT_TRUE(target_digit >= '0' && target_digit <= '9');
  target_digit = target_digit == '0' ? '1' : '0';
  {
    std::ofstream os(with_checkpoint.checkpoint_path, std::ios::trunc);
    os << full;
  }
  const ExperimentResult resumed =
      run_experiment(tiny_factory(), two_strategies(), with_checkpoint);
  expect_identical_results(uninterrupted, resumed);
}

TEST(CheckpointTest, VersionOneFilesAreReadAndUpgraded) {
  const ExperimentConfig plain = base_config();
  const ExperimentResult uninterrupted =
      run_experiment(tiny_factory(), two_strategies(), plain);

  // Fabricate a v1 file from a v2 one: v1 is exactly the same format minus
  // the CRC trailers.  The loader must accept it, and resuming must
  // rewrite the file as v2 before appending (mixed v1/v2 bodies would be
  // unreadable).
  ExperimentConfig with_checkpoint = plain;
  with_checkpoint.checkpoint_path = temp_path("accu_ckpt_v1.txt");
  (void)run_experiment(tiny_factory(), two_strategies(), with_checkpoint);
  const std::string full = read_file(with_checkpoint.checkpoint_path);
  std::string v1 = "# accu-checkpoint v1\n";
  std::istringstream lines(full);
  std::string line;
  std::getline(lines, line);  // drop the v2 magic
  while (std::getline(lines, line)) {
    if (line.rfind("crc ", 0) == 0) continue;
    v1 += line;
    v1 += '\n';
  }
  {
    std::ofstream os(with_checkpoint.checkpoint_path, std::ios::trunc);
    os << v1;
  }
  const ExperimentResult resumed =
      run_experiment(tiny_factory(), two_strategies(), with_checkpoint);
  expect_identical_results(uninterrupted, resumed);
  const std::string upgraded = read_file(with_checkpoint.checkpoint_path);
  EXPECT_EQ(upgraded.rfind("# accu-checkpoint v2", 0), 0u);
  EXPECT_NE(upgraded.find("\ncrc "), std::string::npos);
}

TEST(CheckpointTest, ReliablePlatformSweepAlsoCheckpoints) {
  // The checkpoint path is orthogonal to fault injection.
  ExperimentConfig plain;
  plain.budget = 15;
  plain.samples = 1;
  plain.runs = 4;
  plain.seed = 37;
  const ExperimentResult uninterrupted =
      run_experiment(tiny_factory(), two_strategies(), plain);
  ExperimentConfig with_checkpoint = plain;
  with_checkpoint.checkpoint_path = temp_path("accu_ckpt_reliable.txt");
  (void)run_experiment(tiny_factory(), two_strategies(), with_checkpoint);
  const ExperimentResult resumed =
      run_experiment(tiny_factory(), two_strategies(), with_checkpoint);
  expect_identical_results(uninterrupted, resumed);
}

}  // namespace
}  // namespace accu
