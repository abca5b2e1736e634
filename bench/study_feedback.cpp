// Feedback-model study beyond the paper: how much of the adaptive
// attack's advantage survives when the platform restricts what the
// attacker observes.  Sweeps the FeedbackModel axis (full / myopic /
// delayed-by-d / batched-every-b) × budget and reports the empirical
// adaptivity gap — E[f | restricted feedback] / E[f | full feedback]
// under common random numbers, so only the feedback model differs
// between the paired runs.  full is the paper's setting (gap = 1 by
// construction); myopic is the fully-feedback-starved floor.
//
// Also prints a per-trial benefit-ratio histogram for each restricted
// model at the largest budget, and `--json=FILE` snapshots the gap
// surface for BENCH_feedback.json.

#include <cinttypes>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "core/feedback.hpp"
#include "core/strategies/abm.hpp"
#include "core/theory/estimator.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace {

using namespace accu;

/// One paired (restricted, full) benefit sample per trial, common random
/// numbers — the per-trial view empirical_adaptivity_gap aggregates away.
struct PairedTrials {
  std::vector<double> restricted;
  std::vector<double> full;

  [[nodiscard]] double gap() const {
    double r = 0.0, f = 0.0;
    for (const double x : restricted) r += x;
    for (const double x : full) f += x;
    return f == 0.0 ? 1.0 : r / f;
  }
};

PairedTrials paired_trials(const AccuInstance& instance,
                           const FeedbackModel& feedback,
                           std::uint32_t budget, std::size_t trials,
                           double w_direct, double w_indirect,
                           util::Rng& rng) {
  PairedTrials out;
  out.restricted.reserve(trials);
  out.full.reserve(trials);
  for (std::size_t t = 0; t < trials; ++t) {
    const Realization truth = Realization::sample(instance, rng);
    util::Rng restricted_rng = rng.split(2 * t + 1);
    util::Rng full_rng = restricted_rng;
    AbmStrategy restricted(w_direct, w_indirect);
    out.restricted.push_back(simulate(instance, truth, restricted, budget,
                                      restricted_rng, {.feedback = feedback})
                                 .total_benefit);
    AbmStrategy full(w_direct, w_indirect);
    out.full.push_back(
        simulate(instance, truth, full, budget, full_rng).total_benefit);
  }
  return out;
}

/// Console histogram of per-trial benefit ratios.  The axis title names
/// the model *with its delay parameter* so delayed:4 and delayed:16 runs
/// are distinguishable in captured logs.
void print_ratio_histogram(const FeedbackModel& feedback,
                           const PairedTrials& trials) {
  util::Histogram hist(0.0, 1.25, 10);
  for (std::size_t t = 0; t < trials.restricted.size(); ++t) {
    if (trials.full[t] == 0.0) continue;
    hist.add(trials.restricted[t] / trials.full[t]);
  }
  std::printf("\n  per-trial benefit ratio under %s "
              "(x: f[%s]/f[full], y: trial fraction)\n",
              feedback.spec().c_str(), feedback.spec().c_str());
  for (std::size_t b = 0; b < hist.bins(); ++b) {
    const int bar = static_cast<int>(hist.fraction(b) * 40.0 + 0.5);
    std::printf("  [%5.2f, %5.2f) %-40.*s %zu\n", hist.bin_lo(b),
                hist.bin_hi(b), bar,
                "tttttttttttttttttttttttttttttttttttttttt", hist.count(b));
  }
}

int run(int argc, char** argv) {
  util::Options opts(argc, argv);
  bench::declare_common_options(opts);
  opts.declare("dataset", "dataset to sweep (default facebook)");
  opts.declare("trials", "paired (restricted, full) trials per cell");
  opts.declare("json", "write a JSON snapshot to this path");
  opts.check_unknown();
  bench::CommonConfig config = bench::read_common_config(opts);
  const std::string dataset = opts.get("dataset", "facebook");
  const auto trials =
      static_cast<std::size_t>(opts.get_int("trials", 8));

  const std::vector<FeedbackModel> models = {
      FeedbackModel{},
      FeedbackModel{FeedbackKind::kMyopic, 0},
      FeedbackModel{FeedbackKind::kDelayed, 1},
      FeedbackModel{FeedbackKind::kDelayed, 4},
      FeedbackModel{FeedbackKind::kDelayed, 16},
      FeedbackModel{FeedbackKind::kBatched, 4},
      FeedbackModel{FeedbackKind::kBatched, 16},
  };
  std::vector<std::uint32_t> budgets;
  for (std::uint32_t k = config.budget / 8; k <= config.budget; k *= 2) {
    if (k > 0) budgets.push_back(k);
  }
  if (budgets.empty()) budgets.push_back(config.budget);

  util::Rng rng(config.seed);
  const AccuInstance instance =
      bench::make_instance_factory(config, dataset)(0, config.seed);

  util::Table table({"feedback", "k", "gap", "restricted", "full"});
  std::vector<PairedTrials> at_max_budget(models.size());
  std::string json = "{\n  \"workload\": \"" + dataset + "-" +
                     util::Table::format(bench::dataset_scale(config, dataset),
                                         2) +
                     " ABM, k<=" + std::to_string(config.budget) +
                     ", cautious=" + std::to_string(config.num_cautious) +
                     ", trials=" + std::to_string(trials) +
                     "\",\n  \"adaptivity_gap\": {\n";
  for (std::size_t m = 0; m < models.size(); ++m) {
    const FeedbackModel& feedback = models[m];
    json += "    \"" + feedback.spec() + "\": {";
    for (std::size_t b = 0; b < budgets.size(); ++b) {
      const std::uint32_t k = budgets[b];
      util::Rng cell_rng = rng.split(1000 * m + k);
      const PairedTrials paired =
          paired_trials(instance, feedback, k, trials, config.w_direct,
                        config.w_indirect, cell_rng);
      double restricted = 0.0, full = 0.0;
      for (const double x : paired.restricted) restricted += x;
      for (const double x : paired.full) full += x;
      table.row()
          .cell(feedback.spec())
          .cell_int(k)
          .cell(paired.gap(), 4)
          .cell(restricted / static_cast<double>(trials), 1)
          .cell(full / static_cast<double>(trials), 1);
      char cell[64];
      std::snprintf(cell, sizeof cell, "%s\"k_%u\": %.4f", b ? ", " : "", k,
                    paired.gap());
      json += cell;
      if (k == budgets.back()) at_max_budget[m] = paired;
    }
    json += m + 1 < models.size() ? "},\n" : "}\n";
  }
  json += "  }\n}\n";

  bench::emit(table,
              "Study — feedback model × budget adaptivity gap (" + dataset +
                  ", " + std::to_string(trials) + " paired trials)",
              config.csv_path);
  for (std::size_t m = 0; m < models.size(); ++m) {
    if (models[m].is_full()) continue;
    print_ratio_histogram(models[m], at_max_budget[m]);
  }

  if (opts.has("json")) {
    std::ofstream os(opts.get("json", ""));
    if (!os) throw IoError("cannot open --json file");
    os << json;
    std::printf("\nwrote %s\n", opts.get("json", "").c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
