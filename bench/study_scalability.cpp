// Engineering study: runtime scaling of the full attack pipeline.
//
// Sweeps the network scale and reports wall time per component (dataset
// generation, PageRank, one full ABM attack with incremental vs reference
// potential maintenance).  Backs the complexity claims of DESIGN.md §7:
// the incremental maintenance turns ABM's per-request cost from O(Σdeg)
// into (amortized) the size of the 2-hop dirty neighbourhood.
//
// `--sweep` switches to the sweep-throughput mode (DESIGN.md §12): the
// full samples × runs × policies grid runs through run_experiment, with
// `--shard=i/n` restricting this invocation to one shard of the task grid
// and `--checkpoint` making each shard resumable.  Per-shard wall time and
// cells/s quantify the scale-out; the shard checkpoints recombine
// bit-identically with `accu merge`.
//
// `--load-latency` switches to the instance-load study (DESIGN.md §17):
// each scale is written as both the text format and the binary .accui
// format, then re-loaded from each — text parse vs zero-parse mmap — and
// the table reports bytes on disk and best-of-three load times.  A pinned
// snapshot of this mode lives at bench/study_scalability_load.snapshot.

#include <cstdio>
#include <exception>
#include <filesystem>

#include "bench_common.hpp"
#include "core/instance_format.hpp"
#include "core/instance_io.hpp"
#include "core/strategies/abm.hpp"
#include "graph/pagerank.hpp"
#include "util/timer.hpp"

namespace {

/// Sweep-throughput mode: one (possibly sharded) run_experiment grid.
int run_sweep_mode(const accu::util::Options& opts,
                   accu::bench::CommonConfig& config,
                   const std::string& dataset) {
  using namespace accu;
  ExperimentConfig exp = bench::experiment_config(config);
  if (opts.has("shard")) {
    const auto shard = parse_shard_spec(opts.get("shard", ""));
    exp.shard_index = shard.first;
    exp.shard_count = shard.second;
  }
  util::Timer timer;
  const ExperimentResult result =
      run_experiment(bench::make_instance_factory(config, dataset),
                     bench::paper_strategies(config), exp);
  const double seconds = timer.seconds();

  util::Table table({"policy", "benefit", "±95%", "cells"});
  for (std::size_t s = 0; s < result.strategy_names.size(); ++s) {
    const TraceAggregator& agg = result.aggregates[s];
    table.row()
        .cell(result.strategy_names[s])
        .cell(agg.total_benefit().mean(), 1)
        .cell(agg.total_benefit().ci95_halfwidth(), 1)
        .cell_int(static_cast<long long>(agg.total_benefit().count()));
  }
  const std::size_t tasks =
      static_cast<std::size_t>(exp.samples) * exp.runs;
  std::size_t owned = 0;
  for (std::size_t task = 0; task < tasks; ++task) {
    owned += task % exp.shard_count == exp.shard_index;
  }
  bench::emit(table,
              "Study — sweep throughput (" + dataset + ", shard " +
                  std::to_string(exp.shard_index) + "/" +
                  std::to_string(exp.shard_count) + ")",
              config.csv_path);
  std::printf("shard %u/%u: %zu of %zu cells in %.2fs (%.1f cells/s)\n",
              exp.shard_index, exp.shard_count, owned, tasks, seconds,
              seconds > 0 ? static_cast<double>(owned) / seconds : 0.0);
  if (!result.failures.empty()) {
    std::fprintf(stderr, "warning: %zu cells failed\n",
                 result.failures.size());
    return 1;
  }
  return 0;
}

/// Instance-load study: text parse vs binary mmap load per scale.
int run_load_mode(accu::bench::CommonConfig& config,
                  const std::string& dataset, double max_scale) {
  using namespace accu;
  const std::string dir =
      (std::filesystem::temp_directory_path() / "accu_load_study").string();
  std::filesystem::create_directories(dir);
  util::Table table({"scale", "nodes", "edges", "text bytes", "accui bytes",
                     "text parse ms", "mmap load ms", "speedup"});
  for (double scale = 0.02; scale <= max_scale + 1e-9; scale *= 2.0) {
    datasets::DatasetConfig dataset_config;
    dataset_config.scale = scale;
    dataset_config.num_cautious = config.num_cautious;
    util::Rng rng(config.seed);
    const AccuInstance instance =
        datasets::make_dataset(dataset, dataset_config, rng);
    const std::string text_path = dir + "/inst.accu";
    const std::string bin_path = dir + "/inst.accui";
    write_instance_file(instance, text_path);
    write_instance_binary_file(instance, bin_path);
    // Best of three: the first load pays the page-cache warm-up for both
    // formats, so the minimum isolates the parse-vs-mmap difference.
    double text_ms = 0.0, bin_ms = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      util::Timer text_timer;
      const AccuInstance from_text = read_instance_file(text_path);
      const double t = text_timer.milliseconds();
      if (rep == 0 || t < text_ms) text_ms = t;
      util::Timer bin_timer;
      const AccuInstance from_bin = read_instance_binary_file(bin_path);
      const double b = bin_timer.milliseconds();
      if (rep == 0 || b < bin_ms) bin_ms = b;
      if (from_text.num_nodes() != from_bin.num_nodes() ||
          from_text.graph().num_edges() != from_bin.graph().num_edges()) {
        std::fprintf(stderr, "error: format loads disagree at scale %.2f\n",
                     scale);
        return 1;
      }
    }
    table.row()
        .cell(scale, 2)
        .cell_int(instance.num_nodes())
        .cell_int(instance.graph().num_edges())
        .cell_int(static_cast<long long>(
            std::filesystem::file_size(text_path)))
        .cell_int(static_cast<long long>(
            std::filesystem::file_size(bin_path)))
        .cell(text_ms, 2)
        .cell(bin_ms, 2)
        .cell(bin_ms > 0 ? text_ms / bin_ms : 0.0, 1);
  }
  std::filesystem::remove_all(dir);
  bench::emit(table, "Study — instance load latency (" + dataset + ")",
              config.csv_path);
  return 0;
}

int run(int argc, char** argv) {
  using namespace accu;
  util::Options opts(argc, argv);
  bench::declare_common_options(opts);
  opts.declare("dataset", "dataset to scale (default twitter)");
  opts.declare("max-scale", "largest scale in the sweep (default 0.32)");
  opts.declare("sweep",
               "sweep-throughput mode: run the samples × runs × policies "
               "grid through run_experiment (honours --samples/--runs/"
               "--threads/--checkpoint)");
  opts.declare("shard",
               "run one shard i/n of the sweep grid (with --sweep); merge "
               "the per-shard checkpoints with 'accu merge'");
  opts.declare("load-latency",
               "instance-load mode: write each scale as text and binary "
               ".accui, report parse vs mmap load times");
  opts.check_unknown();
  bench::CommonConfig config = bench::read_common_config(opts);
  if (opts.get_bool("sweep", false)) {
    if (!opts.has("k")) config.budget = 50;
    return run_sweep_mode(opts, config,
                          opts.get("dataset", "twitter"));
  }
  if (opts.get_bool("load-latency", false)) {
    return run_load_mode(config, opts.get("dataset", "twitter"),
                         opts.get_double("max-scale", 0.32));
  }
  if (!opts.has("k")) config.budget = 300;
  const std::string dataset = opts.get("dataset", "twitter");
  const double max_scale = opts.get_double("max-scale", 0.32);

  util::Table table({"scale", "nodes", "edges", "generate ms", "pagerank ms",
                     "ABM ms (incremental)", "ABM ms (reference)",
                     "benefit"});
  for (double scale = 0.02; scale <= max_scale + 1e-9; scale *= 2.0) {
    datasets::DatasetConfig dataset_config;
    dataset_config.scale = scale;
    dataset_config.num_cautious = config.num_cautious;
    util::Rng rng(config.seed);
    util::Timer generate_timer;
    const AccuInstance instance =
        datasets::make_dataset(dataset, dataset_config, rng);
    const double generate_ms = generate_timer.milliseconds();

    util::Timer pagerank_timer;
    const auto scores = graph::pagerank(instance.graph());
    const double pagerank_ms = pagerank_timer.milliseconds();
    (void)scores;

    const Realization truth = Realization::sample(instance, rng);
    double benefit = 0.0;
    double incremental_ms = 0.0, reference_ms = 0.0;
    for (const bool incremental : {true, false}) {
      AbmStrategy::Config abm_config;
      abm_config.weights = {config.w_direct, config.w_indirect};
      abm_config.incremental = incremental;
      AbmStrategy strategy(abm_config);
      util::Rng srng(1);
      util::Timer attack_timer;
      const SimulationResult result =
          simulate(instance, truth, strategy, config.budget, srng);
      (incremental ? incremental_ms : reference_ms) =
          attack_timer.milliseconds();
      benefit = result.total_benefit;
    }
    table.row()
        .cell(scale, 2)
        .cell_int(instance.num_nodes())
        .cell_int(instance.graph().num_edges())
        .cell(generate_ms, 1)
        .cell(pagerank_ms, 1)
        .cell(incremental_ms, 1)
        .cell(reference_ms, 1)
        .cell(benefit, 1);
  }
  bench::emit(table,
              "Study — runtime scaling (" + dataset + ", k=" +
                  std::to_string(config.budget) + ")",
              config.csv_path);
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
