// Tests for the experiment checkpoint: a killed-and-resumed sweep must
// reproduce the uninterrupted aggregates exactly (bit-identical), a
// truncated trailing block is discarded rather than corrupting the resume,
// a checkpoint from a different experiment or an old format version is
// rejected, thousands of hostile mutants either resume exactly or fail
// with IoError, and the cell writer's bytes equal printf's.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/experiment.hpp"
#include "core/strategies/abm.hpp"
#include "core/strategies/baselines.hpp"
#include "datasets/datasets.hpp"
#include "test_paths.hpp"
#include "util/crc32.hpp"

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
  std::ifstream is(path, std::ios::binary);
  std::ostringstream out;
  out << is.rdbuf();
  return out.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << bytes;
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

TEST(CheckpointTest, VersionOneFilesAreRejectedWithADiagnostic) {
  // Fabricate a v1 file from a v2 one: v1 was the same format minus the
  // CRC trailers.  v1 is no longer read: resuming must fail with an
  // IoError that names the version and says to re-run, and must leave the
  // file as it was.
  ExperimentConfig with_checkpoint = base_config();
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
  write_file(with_checkpoint.checkpoint_path, v1);
  try {
    (void)run_experiment(tiny_factory(), two_strategies(), with_checkpoint);
    FAIL() << "a v1 checkpoint was accepted";
  } catch (const IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version 1"), std::string::npos) << what;
    EXPECT_NE(what.find("re-run the sweep"), std::string::npos) << what;
  }
  EXPECT_EQ(read_file(with_checkpoint.checkpoint_path), v1);
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

// --- hostile bytes -----------------------------------------------------------

/// Bit-exact equality of every aggregate, as a value (the mutation sweep
/// below checks thousands of cases and must not print one failure each).
bool same_series(const util::SeriesAccumulator& x,
                 const util::SeriesAccumulator& y) {
  if (x.length() != y.length()) return false;
  for (std::size_t i = 0; i < x.length(); ++i) {
    const util::RunningStat& a = x.at(i);
    const util::RunningStat& b = y.at(i);
    if (a.count() != b.count() || a.mean() != b.mean() ||
        a.variance() != b.variance() || a.min() != b.min() ||
        a.max() != b.max()) {
      return false;
    }
  }
  return true;
}

bool same_stat(const util::RunningStat& a, const util::RunningStat& b) {
  return a.count() == b.count() && a.mean() == b.mean() &&
         a.variance() == b.variance() && a.min() == b.min() &&
         a.max() == b.max();
}

bool identical(const ExperimentResult& a, const ExperimentResult& b) {
  if (a.strategy_names != b.strategy_names || !b.failures.empty()) {
    return false;
  }
  for (std::size_t s = 0; s < a.aggregates.size(); ++s) {
    const TraceAggregator& x = a.aggregates[s];
    const TraceAggregator& y = b.aggregates[s];
    if (!same_series(x.cumulative_benefit(), y.cumulative_benefit()) ||
        !same_series(x.marginal(), y.marginal()) ||
        !same_series(x.marginal_cautious(), y.marginal_cautious()) ||
        !same_series(x.marginal_reckless(), y.marginal_reckless()) ||
        !same_series(x.cautious_fraction(), y.cautious_fraction()) ||
        !same_stat(x.total_benefit(), y.total_benefit()) ||
        !same_stat(x.cautious_friends(), y.cautious_friends()) ||
        !same_stat(x.accepted_requests(), y.accepted_requests()) ||
        !same_stat(x.faulted_requests(), y.faulted_requests()) ||
        !same_stat(x.retries(), y.retries()) ||
        !same_stat(x.suspended_rounds(), y.suspended_rounds()) ||
        !same_stat(x.abandoned_targets(), y.abandoned_targets())) {
      return false;
    }
  }
  return true;
}

/// Rewrites every `crc <task> <8 hex>` trailer to the CRC of the bytes
/// from the preceding `begin` line up to it, so a mutation reaches the
/// parser instead of stopping at the checksum.
std::string refresh_crcs(std::string text) {
  std::size_t pos = 0;
  while ((pos = text.find("\ncrc ", pos)) != std::string::npos) {
    const std::size_t line = pos + 1;
    pos = line;
    const std::size_t begin = text.rfind("\nbegin ", line);
    const std::size_t eol = text.find('\n', line);
    if (begin == std::string::npos || eol == std::string::npos ||
        eol - line < 14 || text[eol - 9] != ' ') {
      continue;
    }
    char hex[16];
    std::snprintf(hex, sizeof hex, "%08x",
                  util::crc32(text.data() + begin + 1, line - begin - 1));
    text.replace(eol - 8, 8, hex);
  }
  return text;
}

/// Splits a line into its space-separated fields' [start, end) offsets.
std::vector<std::pair<std::size_t, std::size_t>> field_spans(
    const std::string& text, std::size_t start, std::size_t eol) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  std::size_t p = start;
  while (p <= eol) {
    std::size_t q = text.find(' ', p);
    if (q == std::string::npos || q > eol) q = eol;
    spans.emplace_back(p, q);
    p = q + 1;
  }
  return spans;
}

// The reader's contract under hostile bytes: whatever a file holds, a
// resume either reproduces the uninterrupted sweep bit for bit (the bad
// block and everything after it re-run) or throws IoError (a damaged
// header).  It never crashes, never reads out of bounds (this suite runs
// in CI's ASan+UBSan stage) and never folds a value the writer did not
// write.  Half of the byte and token mutations get their CRC trailers
// refreshed so they reach the field parser; those only use bytes and
// tokens the writer's grammar cannot contain at that spot, so a refreshed
// mutant that parses would be a reader bug, not a legal file.
TEST(CheckpointTest, MutatedFilesResumeExactlyOrFailCleanly) {
  util::Rng instance_rng(5);
  datasets::DatasetConfig dataset;
  dataset.scale = 0.03;
  dataset.num_cautious = 6;
  const AccuInstance instance =
      datasets::make_dataset("facebook", dataset, instance_rng);
  const InstanceFactory factory = [&instance](std::uint32_t, std::uint64_t) {
    return instance;
  };
  ExperimentConfig config;
  config.budget = 10;
  config.samples = 1;
  config.runs = 4;
  config.seed = 77;
  config.faults = FaultConfig::uniform(0.2);
  config.retry = util::RetryPolicy::exponential_jitter(2);
  config.durability.mode = util::DurabilityPolicy::Mode::kGrouped;
  const ExperimentResult reference =
      run_experiment(factory, two_strategies(), config);

  config.checkpoint_path = temp_path("accu_ckpt_mutants.txt");
  (void)run_experiment(factory, two_strategies(), config);
  const std::string valid = read_file(config.checkpoint_path);
  const std::size_t first_block = valid.find("\nbegin ") + 1;
  const std::size_t last_block = valid.rfind("\nbegin ") + 1;
  ASSERT_GT(last_block, first_block);
  std::size_t records = 0;
  for (std::size_t p = 0; (p = valid.find("\nt ", p)) != std::string::npos;
       ++p) {
    ++records;
  }
  ASSERT_EQ(records, config.runs * two_strategies().size() * config.budget);

  std::vector<std::string> mutants;
  // Every truncation point inside the last block.
  for (std::size_t cut = last_block; cut < valid.size(); ++cut) {
    mutants.push_back(valid.substr(0, cut));
  }
  util::Rng rng(20190729);
  // Byte flips anywhere, CRC left alone: the checksum (blocks) or the
  // fingerprint check (header) must catch every one.
  for (int i = 0; i < 600; ++i) {
    std::string m = valid;
    const std::size_t at = rng.below(m.size());
    m[at] = static_cast<char>(m[at] ^ static_cast<char>(1 + rng.below(255)));
    mutants.push_back(std::move(m));
  }
  // Hostile bytes in the block region, half with refreshed CRCs.
  constexpr char kHostile[] = {'x', '\r', '\t', ' ', '\n', '\0', '#', '\x7f'};
  for (int i = 0; i < 600; ++i) {
    std::string m = valid;
    const std::size_t at = first_block + rng.below(m.size() - first_block);
    const char byte = kHostile[rng.below(sizeof kHostile)];
    if (m[at] == byte) continue;
    m[at] = byte;
    mutants.push_back(i % 2 == 0 ? refresh_crcs(std::move(m)) : std::move(m));
  }
  // Tokens the writer never emits in place of one field of a block line
  // (crc trailers excluded), plus a trailing token, a stray `\r`, a
  // repeated record line, and a record moved from strategy 1 to strategy 0
  // (the block keeps its line count).  Every trace here is budget-long
  // under faults, so the last two exceed the budget.  A double field only
  // gets tokens that are not doubles either.
  const std::vector<std::string> int_tokens = {
      "nan", "inf", "1e999", "-1", "+5", "1234567890123456789012345"};
  const std::vector<std::string> real_tokens = {"nan", "inf", "1e999", "+5",
                                                "-nan", "infinity"};
  std::vector<std::pair<std::size_t, std::size_t>> lines;  // [start, eol)
  for (std::size_t p = first_block; p < valid.size();) {
    const std::size_t eol = valid.find('\n', p);
    if (valid.compare(p, 4, "crc ") != 0) lines.emplace_back(p, eol);
    p = eol + 1;
  }
  for (int i = 0; i < 800; ++i) {
    const auto [start, eol] = lines[rng.below(lines.size())];
    std::string m = valid;
    const std::uint64_t kind = rng.below(10);
    if (kind == 0) {
      m.insert(eol, " 7");
    } else if (kind == 1) {
      m.insert(eol, "\r");
    } else if (kind == 2) {
      if (valid[start] != 't') continue;
      m.insert(start, valid.substr(start, eol + 1 - start));
    } else if (kind == 3) {
      if (valid.compare(start, 4, "t 0 ") != 0) continue;
      const std::size_t moved = valid.find("\nt 1 ", eol) + 1;
      m.erase(moved, valid.find('\n', moved) + 1 - moved);
      m.insert(start, valid.substr(start, eol + 1 - start));
    } else {
      const auto spans = field_spans(valid, start, eol);
      const std::size_t f = rng.below(spans.size());
      const bool real_field = valid[start] == 't' && f == 7;
      const std::vector<std::string>& pool =
          real_field ? real_tokens : int_tokens;
      m.replace(spans[f].first, spans[f].second - spans[f].first,
                pool[rng.below(pool.size())]);
    }
    mutants.push_back(i % 2 == 0 ? refresh_crcs(std::move(m)) : std::move(m));
  }
  ASSERT_GE(mutants.size(), 2000u);

  std::size_t resumed = 0, rejected = 0;
  for (std::size_t i = 0; i < mutants.size(); ++i) {
    write_file(config.checkpoint_path, mutants[i]);
    try {
      const ExperimentResult result =
          run_experiment(factory, two_strategies(), config);
      EXPECT_TRUE(identical(reference, result)) << "mutant " << i;
      ++resumed;
    } catch (const IoError&) {
      ++rejected;
    }
  }
  // Most mutants land in blocks and resume; header hits are rejected.
  EXPECT_GT(resumed, mutants.size() / 2);
  EXPECT_GT(rejected, 0u);
}

// --- the writer's format -------------------------------------------------------

/// The cell writer as it stood on printf: the reference bytes.
std::string printf_cell(std::size_t task,
                        const std::vector<SimulationResult>& outcomes) {
  std::ostringstream block;
  block << "begin " << task << '\n';
  char buf[192];
  for (std::size_t s = 0; s < outcomes.size(); ++s) {
    for (const RequestRecord& r : outcomes[s].trace) {
      std::snprintf(buf, sizeof buf, "t %zu %u %d %d %u %u %.17g\n", s,
                    r.target, r.accepted ? 1 : 0, r.cautious_target ? 1 : 0,
                    static_cast<unsigned>(r.fault), r.attempt,
                    r.benefit_after);
      block << buf;
    }
    block << "m " << s << ' ' << outcomes[s].num_abandoned << '\n';
  }
  block << "end " << task << '\n';
  std::string text = block.str();
  std::snprintf(buf, sizeof buf, "crc %zu %08x\n", task, util::crc32(text));
  return text + buf;
}

TEST(CheckpointTest, CellWriterMatchesPrintfByteForByte) {
  std::vector<double> values = {
      0.0, -0.0, 1.0, 2.0, 12.0, 218.0, 6817.0, 6832.0, 100000.0, 0.1,
      1.0 / 3.0, 1e-5, 123.45678901234567, 1e21, 1e22, -1.5,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::min() / 3.0,  // subnormal
      std::nextafter(std::numeric_limits<double>::min(), 0.0),
      9007199254740991.0, 9007199254740992.0, 9007199254740993.0,
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max()};
  for (int b = 0; b <= 1000; ++b) values.push_back(b);  // integer benefits
  util::Rng rng(2019);
  while (values.size() < 100'000 + 1'100) {
    // Raw bit patterns cover every exponent; uniform draws cover the
    // magnitudes real benefits have.
    const std::uint64_t bits = rng();
    double x = 0.0;
    std::memcpy(&x, &bits, sizeof x);
    if (std::isfinite(x)) values.push_back(x);
    values.push_back(rng.uniform(0.0, 5000.0));
  }

  checkpoint::Fingerprint fp;
  fp.samples = 1;
  fp.runs = 1u << 30;
  fp.names = {"a", "b", "c"};
  std::vector<SimulationResult> outcomes(fp.names.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    RequestRecord r;
    r.target = i % 7 == 0 ? std::numeric_limits<NodeId>::max()
                          : static_cast<NodeId>(i);
    r.accepted = i % 3 == 0;
    r.cautious_target = i % 5 == 0;
    r.fault = static_cast<FaultKind>(i % 6);
    r.attempt = i % 11 == 0 ? std::numeric_limits<std::uint32_t>::max()
                            : static_cast<std::uint32_t>(i % 4);
    r.benefit_after = values[i];
    outcomes[i % outcomes.size()].trace.push_back(r);
  }
  outcomes[1].num_abandoned = std::numeric_limits<std::uint32_t>::max();
  for (const SimulationResult& o : outcomes) {
    fp.budget = std::max(fp.budget, static_cast<std::uint32_t>(o.trace.size()));
  }

  const std::size_t task = 987654321;
  std::string written = "stale bytes the writer must replace";
  checkpoint::serialize_cell(task, outcomes, written);
  // Report the first differing byte, not a line diff of megabytes.
  const std::string want = printf_cell(task, outcomes);
  const std::size_t at = static_cast<std::size_t>(
      std::mismatch(written.begin(), written.end(), want.begin(), want.end())
          .first -
      written.begin());
  ASSERT_TRUE(written == want)
      << "first difference at byte " << at << ": wrote \""
      << written.substr(at, 40) << "\", printf gives \""
      << want.substr(at, 40) << "\"";

  // And the reader takes every one of those values back bit for bit.
  checkpoint::Cell cell;
  ASSERT_TRUE(checkpoint::parse_block(written, fp, cell));
  EXPECT_EQ(cell.task, task);
  for (std::size_t s = 0; s < outcomes.size(); ++s) {
    const std::span<const RequestRecord> trace = cell.trace(s);
    ASSERT_EQ(trace.size(), outcomes[s].trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const double want = outcomes[s].trace[i].benefit_after;
      ASSERT_EQ(std::memcmp(&trace[i].benefit_after, &want, sizeof want), 0)
          << "value " << want;
    }
  }
}

}  // namespace
}  // namespace accu
