// Tests for the experiment report writers and the degree-proportional
// benefit extension.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/report.hpp"
#include "util/atomic_file.hpp"
#include "util/error.hpp"
#include "util/io_env.hpp"
#include "core/strategies/abm.hpp"
#include "core/strategies/baselines.hpp"
#include "datasets/datasets.hpp"
#include "graph/generators.hpp"
#include "test_paths.hpp"

namespace accu {
namespace {

using test::temp_path;

ExperimentResult small_result(ExperimentConfig& config) {
  const InstanceFactory factory = [](std::uint32_t, std::uint64_t seed) {
    util::Rng rng(seed);
    datasets::DatasetConfig dataset_config;
    dataset_config.scale = 0.05;
    dataset_config.num_cautious = 8;
    return datasets::make_dataset("facebook", dataset_config, rng);
  };
  const std::vector<StrategyFactory> strategies = {
      {"ABM", [] { return std::make_unique<AbmStrategy>(0.5, 0.5); }},
      {"Random", [] { return std::make_unique<RandomStrategy>(); }},
  };
  config.budget = 12;
  config.samples = 1;
  config.runs = 2;
  config.seed = 5;
  return run_experiment(factory, strategies, config);
}

TEST(MarkdownReportTest, ContainsAllSections) {
  ExperimentConfig config;
  const ExperimentResult result = small_result(config);
  std::ostringstream os;
  ReportOptions options;
  options.title = "unit-test report";
  options.checkpoints = 4;
  write_markdown_report(result, config, os, options);
  const std::string text = os.str();
  EXPECT_NE(text.find("# unit-test report"), std::string::npos);
  EXPECT_NE(text.find("budget k = 12"), std::string::npos);
  EXPECT_NE(text.find("## Summary"), std::string::npos);
  EXPECT_NE(text.find("| ABM |"), std::string::npos);
  EXPECT_NE(text.find("| Random |"), std::string::npos);
  EXPECT_NE(text.find("## Benefit vs requests"), std::string::npos);
  // Checkpoints 3, 6, 9, 12.
  EXPECT_NE(text.find("| 12 |"), std::string::npos);
  EXPECT_NE(text.find("| 3 |"), std::string::npos);
}

TEST(MarkdownReportTest, EmptyResultWritesNotAvailableInsteadOfAsserting) {
  // An interrupted sweep whose cells all failed — or an empty merge —
  // produces aggregates with no samples and zero-length series.  The
  // report must degrade to "n/a" rows, not assert on series.at(k-1).
  ExperimentConfig config;
  config.budget = 12;
  config.samples = 1;
  config.runs = 2;
  ExperimentResult result;
  result.strategy_names = {"ABM", "Random"};
  result.aggregates.resize(2);
  std::ostringstream os;
  ReportOptions options;
  options.checkpoints = 4;
  write_markdown_report(result, config, os, options);
  const std::string text = os.str();
  EXPECT_NE(text.find("## Benefit vs requests"), std::string::npos);
  EXPECT_NE(text.find("| 12 | n/a | n/a |"), std::string::npos);
}

TEST(MarkdownReportTest, MoreCheckpointsThanBudgetEmitsDistinctRowsOnly) {
  ExperimentConfig config;
  ExperimentResult result = small_result(config);  // budget 12
  std::ostringstream os;
  ReportOptions options;
  options.checkpoints = 30;  // > budget: repeated k values must collapse
  write_markdown_report(result, config, os, options);
  const std::string text = os.str();
  // Exactly one row per distinct k in 1..12.
  for (std::size_t k = 1; k <= 12; ++k) {
    const std::string row = "| " + std::to_string(k) + " |";
    const std::size_t first = text.find(row);
    EXPECT_NE(first, std::string::npos) << row;
    EXPECT_EQ(text.find(row, first + 1), std::string::npos)
        << row << " repeated";
  }
}

TEST(MarkdownReportTest, SeriesShorterThanBudgetSaysNotAvailable) {
  // Aggregates built under a smaller budget than config.budget (a merge of
  // early-stopped shards): the late checkpoints have no samples.
  ExperimentConfig config;
  ExperimentResult result = small_result(config);  // series length 12
  config.budget = 24;  // report asks for checkpoints past the series
  std::ostringstream os;
  ReportOptions options;
  options.checkpoints = 4;  // k = 6, 12, 18, 24
  write_markdown_report(result, config, os, options);
  const std::string text = os.str();
  EXPECT_NE(text.find("| 6 |"), std::string::npos);
  EXPECT_EQ(text.find("| 6 | n/a"), std::string::npos);
  EXPECT_NE(text.find("| 18 | n/a | n/a |"), std::string::npos);
  EXPECT_NE(text.find("| 24 | n/a | n/a |"), std::string::npos);
}

TEST(CurvesCsvTest, LongFormatShape) {
  ExperimentConfig config;
  const ExperimentResult result = small_result(config);
  std::ostringstream os;
  write_curves_csv(result, os);
  std::istringstream is(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_EQ(line, "strategy,request,metric,mean,ci95");
  std::size_t rows = 0;
  std::size_t abm_rows = 0;
  while (std::getline(is, line)) {
    ++rows;
    abm_rows += line.rfind("ABM,", 0) == 0;
    // Five comma-separated fields.
    EXPECT_EQ(std::count(line.begin(), line.end(), ','), 4) << line;
  }
  // 2 strategies × 5 metrics × 12 requests.
  EXPECT_EQ(rows, 2u * 5u * 12u);
  EXPECT_EQ(abm_rows, 5u * 12u);
}

TEST(DegreeProportionalBenefitTest, ScalesWithExpectedDegree) {
  graph::GraphBuilder b(4);
  b.add_edge(0, 1, 0.5);
  b.add_edge(0, 2, 1.0);
  b.add_edge(0, 3, 0.5);
  const Graph g = b.build();
  const BenefitModel m = BenefitModel::degree_proportional(g, 1.0, 2.0, 0.5);
  // E[deg(0)] = 2.0; leaves 0.5 / 1.0 / 0.5.
  EXPECT_DOUBLE_EQ(m.friend_benefit(0), 1.0 + 2.0 * 2.0);
  EXPECT_DOUBLE_EQ(m.friend_benefit(1), 1.0 + 2.0 * 0.5);
  EXPECT_DOUBLE_EQ(m.fof_benefit(0), 0.5 * 5.0);
  EXPECT_TRUE(m.has_strict_gap());
}

TEST(DegreeProportionalBenefitTest, RejectsBadParameters) {
  graph::GraphBuilder b(2);
  b.add_edge(0, 1);
  const Graph g = b.build();
  EXPECT_THROW(BenefitModel::degree_proportional(g, 0.0, 1.0, 0.5),
               InvalidArgument);
  EXPECT_THROW(BenefitModel::degree_proportional(g, 1.0, -1.0, 0.5),
               InvalidArgument);
  EXPECT_THROW(BenefitModel::degree_proportional(g, 1.0, 1.0, 1.0),
               InvalidArgument);
}

TEST(DegreeProportionalBenefitTest, UsableInAnInstance) {
  util::Rng rng(7);
  graph::GraphBuilder b = graph::barabasi_albert(40, 3, rng);
  b.assign_uniform_probs(rng);
  const Graph g = b.build();
  const AccuInstance instance(
      g, std::vector<UserClass>(40), std::vector<double>(40, 0.5),
      std::vector<std::uint32_t>(40, 1),
      BenefitModel::degree_proportional(g, 1.0, 0.5, 0.25));
  const Realization truth = Realization::sample(instance, rng);
  AbmStrategy abm = make_classic_greedy();
  util::Rng srng(8);
  const SimulationResult result = simulate(instance, truth, abm, 10, srng);
  EXPECT_GT(result.total_benefit, 0.0);
}

#ifdef ACCU_HAVE_POSIX_IO

// The durable report path (render to string, write_file_atomic) must turn
// a full disk into a clean DiskFullError without tearing a previously
// published report — the daemon republishes report.md on completion.
TEST(MarkdownReportTest, EnospcOnTheDurableReportPathLeavesTheOldReport) {
  ExperimentConfig config;
  const ExperimentResult result = small_result(config);
  std::ostringstream os;
  write_markdown_report(result, config, os);
  const std::string rendered = os.str();

  const std::string path = temp_path("report_enospc_test.md");
  util::write_file_atomic(path, "previous report\n");
  {
    util::FaultyFs faulty;
    util::ScopedIoEnv scoped(faulty);
    faulty.disk_budget(32);
    EXPECT_THROW(util::write_file_atomic(path, rendered), DiskFullError);
    faulty.materialize_crash_state();
  }
  std::ifstream is(path);
  std::ostringstream survived;
  survived << is.rdbuf();
  EXPECT_EQ(survived.str(), "previous report\n");

  // With space available again the same bytes publish verbatim.
  util::write_file_atomic(path, rendered);
  std::ifstream again(path);
  std::ostringstream republished;
  republished << again.rdbuf();
  EXPECT_EQ(republished.str(), rendered);
}

#endif  // ACCU_HAVE_POSIX_IO

}  // namespace
}  // namespace accu
