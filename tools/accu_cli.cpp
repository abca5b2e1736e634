// accu — command-line front end to the ACCU library.
//
// Subcommands:
//   generate   build a synthetic dataset instance and write it to a file
//   stats      print network/model statistics of an instance file
//   attack     run one policy against an instance and print the trace
//   compare    run the full policy roster and print a comparison table
//   assess     defender-side vulnerability report (Monte Carlo ABM)
//   ratio      brute-force submodularity ratios of a small instance
//   pack       convert a text instance to the mmap-able binary format
//   unpack     convert a binary instance back to the text format
//   synth      out-of-core generator: build a large binary instance
//
// Every subcommand accepts --help.  Instances travel either as the text
// format of core/instance_io.hpp or the binary ".accui" format of
// core/instance_format.hpp; every --in=FILE auto-detects which by magic,
// so a `generate`d or `synth`ed file reproduces exactly the same
// experiment anywhere.

#include <csignal>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "core/defense.hpp"
#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "core/feedback.hpp"
#include "core/instance_format.hpp"
#include "core/instance_io.hpp"
#include "core/report.hpp"
#include "core/score_simd.hpp"
#include "core/strategies/abm.hpp"
#include "core/strategies/baselines.hpp"
#include "core/multibot/multibot.hpp"
#include "core/strategies/batched.hpp"
#include "core/strategies/oracle.hpp"
#include "core/strategies/retrying.hpp"
#include "core/theory/ratios.hpp"
#include "datasets/datasets.hpp"
#include "datasets/stream_gen.hpp"
#include "graph/algorithms.hpp"
#include "graph/dot.hpp"
#include "serve/daemon.hpp"
#include "serve/job.hpp"
#include "util/cancel.hpp"
#include "util/exit_codes.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

// Set by the SIGINT/SIGTERM handler and read by the sweep's workers and
// cell cancel tokens: a first Ctrl-C stops the sweep at cell granularity
// (checkpoint flushed); sig_atomic_t is the only type a handler may
// portably write.
volatile std::sig_atomic_t g_interrupted = 0;

extern "C" void accu_cli_signal_handler(int) { g_interrupted = 1; }

namespace {

using namespace accu;

void install_interrupt_handlers() {
  std::signal(SIGINT, accu_cli_signal_handler);
  std::signal(SIGTERM, accu_cli_signal_handler);
}

constexpr const char* kUsage =
    "usage: accu <command> [options]\n"
    "\n"
    "commands:\n"
    "  generate   build a synthetic dataset instance (--dataset, --scale,\n"
    "             --cautious, --cautious-bf, --theta, --q1, --q2, --seed,\n"
    "             --out=FILE)\n"
    "  stats      statistics of an instance (--in=FILE)\n"
    "  attack     run one policy (--in=FILE, --policy=abm|greedy|maxdegree|\n"
    "             pagerank|random|batched, --k, --wd, --wi, --batch, --seed,\n"
    "             --trace, --fault-rate, --retry, --deadline-ms,\n"
    "             --max-cell-retries, --feedback=full|myopic|delayed|\n"
    "             batched, --feedback-delay=d)\n"
    "  compare    compare the paper's policy roster (--in=FILE, --k, --runs,\n"
    "             --seed, --fault-rate, --retry, --resume=CHECKPOINT,\n"
    "             --deadline-ms, --max-cell-retries, --shard=i/n,\n"
    "             --feedback, --feedback-delay; Ctrl-C stops at cell\n"
    "             granularity and a checkpointed sweep resumes)\n"
    "  merge      combine shard checkpoints into one result (--out=MERGED,\n"
    "             --report, --curves, --allow-missing, positional shard\n"
    "             checkpoint files)\n"
    "  assess     defender vulnerability report (--in=FILE, --k, --trials,\n"
    "             --seed, --top)\n"
    "  swarm      multi-bot coalition sweep (--in=FILE, --k, --runs, --wd,\n"
    "             --wi, --seed)\n"
    "  ratio      submodularity ratios, small instances only (--in=FILE)\n"
    "  pack       text instance -> binary .accui for zero-parse mmap loads\n"
    "             (--in=FILE, --out=FILE); .accui files of an older format\n"
    "             version are rejected: re-pack them, or re-run synth\n"
    "             with the same seed\n"
    "  unpack     binary .accui -> canonical text instance (--in=FILE,\n"
    "             --out=FILE)\n"
    "  synth      out-of-core generator, writes binary directly (--nodes,\n"
    "             --avg-degree, --alpha, --cautious, --cautious-bf,\n"
    "             --theta, --seed, --batch-bytes, --out=FILE)\n"
    "  serve      crash-safe sweep daemon (accu serve <run|submit|status|\n"
    "             stop> --root=DIR; run: --workers, --max-queued, --rate,\n"
    "             --burst, --crash-budget, --poll-ms, --exit-when-idle;\n"
    "             submit: --kind=compare|simulate|sweep plus the compare/\n"
    "             generate knobs, --feedback, --feedback-delay, --name,\n"
    "             --job-deadline-ms)\n";

AccuInstance load_instance(const util::Options& opts) {
  const std::string path = opts.get("in", "");
  if (path.empty()) {
    throw InvalidArgument("missing --in=FILE (generate one with 'accu "
                          "generate')");
  }
  return load_instance_auto(path);
}

/// Shared fault-injection knobs: `--fault-rate` spreads its value evenly
/// over the four fault kinds; `--retry` picks the recovery policy.
FaultConfig fault_config(const util::Options& opts) {
  const double rate = opts.get_double("fault-rate", 0.0);
  const auto w =
      static_cast<std::uint32_t>(opts.get_int("suspension-rounds", 3));
  return FaultConfig::uniform(rate, w);
}

util::RetryPolicy retry_policy(const util::Options& opts) {
  return util::RetryPolicy::parse(opts.get("retry", "none"));
}

/// `--feedback` / `--feedback-delay` → FeedbackModel (attack, compare).
FeedbackModel feedback_model(const util::Options& opts) {
  return FeedbackModel::parse(
      opts.get("feedback", "full"),
      static_cast<std::uint32_t>(opts.get_int("feedback-delay", 0)));
}

std::unique_ptr<Strategy> make_policy(const util::Options& opts) {
  const std::string policy = opts.get("policy", "abm");
  const double wd = opts.get_double("wd", 0.5);
  const double wi = opts.get_double("wi", 0.5);
  if (policy == "abm") return std::make_unique<AbmStrategy>(wd, wi);
  if (policy == "greedy") return std::make_unique<AbmStrategy>(1.0, 0.0);
  if (policy == "maxdegree") return std::make_unique<MaxDegreeStrategy>();
  if (policy == "pagerank") return std::make_unique<PageRankStrategy>();
  if (policy == "random") return std::make_unique<RandomStrategy>();
  if (policy == "batched") {
    const auto batch =
        static_cast<std::uint32_t>(opts.get_int("batch", 20));
    return std::make_unique<BatchedAbmStrategy>(PotentialWeights{wd, wi},
                                                batch);
  }
  throw InvalidArgument("unknown --policy=" + policy);
}

int cmd_generate(const util::Options& opts) {
  datasets::DatasetConfig config;
  config.scale = opts.get_double("scale", 0.1);
  config.num_cautious =
      static_cast<std::uint32_t>(opts.get_int("cautious", 100));
  config.cautious_friend_benefit = opts.get_double("cautious-bf", 50.0);
  config.threshold_fraction = opts.get_double("theta", 0.3);
  config.cautious_below_prob = opts.get_double("q1", 0.0);
  config.cautious_above_prob = opts.get_double("q2", 1.0);
  const std::string dataset = opts.get("dataset", "facebook");
  const std::string out = opts.get("out", dataset + ".accu");
  util::Rng rng(static_cast<std::uint64_t>(opts.get_int("seed", 1)));
  // --edges=FILE ingests a real snapshot (e.g. an actual SNAP edge list)
  // instead of generating a synthetic substitute.
  const AccuInstance instance =
      opts.has("edges")
          ? datasets::make_dataset_from_edge_list(opts.get("edges", ""),
                                                  config, rng)
          : datasets::make_dataset(dataset, config, rng);
  write_instance_file(instance, out);
  std::printf("wrote %s: %u users (%u cautious), %u potential edges\n",
              out.c_str(), instance.num_nodes(), instance.num_cautious(),
              instance.graph().num_edges());
  return 0;
}

int cmd_pack(const util::Options& opts) {
  const std::string in = opts.get("in", "");
  if (in.empty()) throw InvalidArgument("missing --in=FILE (text instance)");
  const std::string out = opts.get("out", in + ".accui");
  const AccuInstance instance = read_instance_file(in);
  write_instance_binary_file(instance, out);
  std::printf("packed %s -> %s: %u users, %u edges\n", in.c_str(),
              out.c_str(), instance.num_nodes(), instance.graph().num_edges());
  return 0;
}

int cmd_unpack(const util::Options& opts) {
  const std::string in = opts.get("in", "");
  if (in.empty()) throw InvalidArgument("missing --in=FILE (binary instance)");
  const std::string out = opts.get("out", in + ".accu");
  const AccuInstance instance = read_instance_binary_file(in);
  write_instance_file(instance, out);
  std::printf("unpacked %s -> %s: %u users, %u edges\n", in.c_str(),
              out.c_str(), instance.num_nodes(), instance.graph().num_edges());
  return 0;
}

int cmd_synth(const util::Options& opts) {
  datasets::StreamGenConfig config;
  config.num_nodes =
      static_cast<std::uint64_t>(opts.get_int("nodes", 1'000'000));
  config.avg_degree = opts.get_double("avg-degree", config.avg_degree);
  config.alpha = opts.get_double("alpha", config.alpha);
  config.num_cautious = static_cast<std::uint32_t>(
      opts.get_int("cautious", static_cast<long long>(config.num_cautious)));
  config.cautious_friend_benefit =
      opts.get_double("cautious-bf", config.cautious_friend_benefit);
  config.threshold_fraction =
      opts.get_double("theta", config.threshold_fraction);
  config.seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  config.batch_bytes = static_cast<std::uint64_t>(opts.get_int(
      "batch-bytes", static_cast<long long>(config.batch_bytes)));
  const std::string out = opts.get("out", "synth.accui");
  const datasets::StreamGenStats stats =
      datasets::generate_instance_stream(config, out);
  std::printf("wrote %s: %llu users (%u cautious), %llu potential edges, "
              "%llu spool scans\n",
              out.c_str(),
              static_cast<unsigned long long>(stats.num_nodes),
              stats.num_cautious,
              static_cast<unsigned long long>(stats.num_edges),
              static_cast<unsigned long long>(stats.spool_scans));
  return 0;
}

int cmd_stats(const util::Options& opts) {
  const AccuInstance instance = load_instance(opts);
  const Graph& g = instance.graph();
  const graph::DegreeStats degrees = graph::degree_stats(g);
  util::Rng rng(1);
  util::Table table({"metric", "value"});
  table.row().cell("users").cell_int(g.num_nodes());
  table.row().cell("potential edges").cell_int(g.num_edges());
  table.row().cell("expected edges").cell(g.expected_num_edges(), 1);
  table.row().cell("cautious users").cell_int(instance.num_cautious());
  table.row().cell("mean degree").cell(degrees.mean, 2);
  table.row().cell("max degree").cell_int(degrees.max);
  table.row().cell("median degree").cell(degrees.median, 1);
  table.row().cell("clustering (sampled)").cell(
      graph::clustering_coefficient(g, 2000, rng), 4);
  table.row().cell("deg∈[10,100] fraction").cell(
      graph::degree_window_fraction(g, 10, 100), 4);
  table.row().cell("generalized cautious model").cell(
      instance.has_generalized_cautious() ? "yes" : "no");
  table.print(std::cout);
  return 0;
}

int cmd_attack(const util::Options& opts) {
  simd::select(simd::parse_isa(opts.get("simd", "auto")));
  const AccuInstance instance = load_instance(opts);
  const auto k = static_cast<std::uint32_t>(opts.get_int("k", 100));
  util::Rng rng(static_cast<std::uint64_t>(opts.get_int("seed", 1)));
  const Realization truth = Realization::sample(instance, rng);
  std::unique_ptr<Strategy> policy;
  if (opts.get("policy", "abm") == "oracle") {
    // Clairvoyant upper-bound reference: needs the ground truth.
    policy = std::make_unique<ClairvoyantGreedyStrategy>(truth);
  } else {
    policy = make_policy(opts);
  }
  const FaultConfig faults_config = fault_config(opts);
  const FeedbackModel feedback = feedback_model(opts);
  const util::RetryPolicy retry = retry_policy(opts);
  if (retry.kind != util::RetryKind::kNone) {
    policy = std::make_unique<RetryingStrategy>(std::move(policy), retry);
  }
  // Optional wall-clock budget: the simulation polls the token between
  // rounds and a blown deadline either retries with a fresh policy seed
  // stream or fails the command.  Attempt 0 draws the exact same seeds as
  // an unsupervised run, so adding --deadline-ms alone never changes the
  // outcome of a run that finishes in time.
  const auto deadline_ms =
      static_cast<std::uint32_t>(opts.get_int("deadline-ms", 0));
  const auto max_retries =
      static_cast<std::uint32_t>(opts.get_int("max-cell-retries", 0));
  SimWorkspace ws;
  const AttackerView* final_view = nullptr;
  SimulationResult result;
  for (std::uint32_t attempt = 0; attempt <= max_retries; ++attempt) {
    util::CancelToken token;
    if (deadline_ms > 0) {
      token.set_deadline_after(std::chrono::milliseconds(deadline_ms));
    }
    util::Rng attempt_rng = attempt == 0 ? rng : rng.split(1000 + attempt);
    util::Rng policy_rng = attempt_rng.split(1);
    AttackerView& attempt_view = ws.reset_view(instance);
    std::optional<FaultModel> faults;
    if (faults_config.total_rate() > 0.0) {
      faults.emplace(faults_config, attempt_rng.split(2)());
    }
    try {
      simulate_into(instance, truth, *policy, k, policy_rng, attempt_view, ws,
                    result,
                    {.faults = faults ? &*faults : nullptr,
                     .cancel = &token,
                     .feedback = feedback});
      final_view = &attempt_view;
      break;
    } catch (const util::CancelledError&) {
      if (attempt < max_retries) {
        std::fprintf(stderr,
                     "attack: exceeded --deadline-ms=%u; retrying with a "
                     "fresh seed stream (attempt %u of %u)\n",
                     deadline_ms, attempt + 2, max_retries + 1);
      }
    }
  }
  if (final_view == nullptr) {
    std::fprintf(stderr,
                 "attack: every attempt exceeded --deadline-ms=%u "
                 "(%u attempts); raise the deadline or --max-cell-retries\n",
                 deadline_ms, max_retries + 1);
    return util::exit_code::kFailure;
  }
  const AttackerView& view = *final_view;
  std::printf("%s, budget %u: benefit %.1f, friends %u (cautious %u)\n",
              policy->name().c_str(), k, result.total_benefit,
              result.num_accepted, result.num_cautious_friends);
  if (faults_config.total_rate() > 0.0) {
    std::printf("platform faults: %u faulted, %u retries, %u rounds "
                "suspended, %u targets abandoned\n",
                result.num_faulted, result.num_retries,
                result.rounds_suspended, result.num_abandoned);
  }
  std::printf("crawl coverage: %zu of %u potential edges observed (%.1f%%)\n",
              view.num_observed_edges(), instance.graph().num_edges(),
              100.0 * static_cast<double>(view.num_observed_edges()) /
                  std::max(1u, instance.graph().num_edges()));
  if (opts.has("dot")) {
    // Export the harvested network with role annotations.
    graph::DotOptions dot_options;
    dot_options.name = "crawl";
    dot_options.node_attributes = [&](NodeId v) {
      if (view.is_friend(v)) {
        return instance.is_cautious(v)
                   ? std::string("color=red,style=filled")
                   : std::string("color=lightblue,style=filled");
      }
      if (view.is_fof(v)) return std::string("color=gray");
      return std::string();
    };
    graph::write_dot_file(observed_graph(view), opts.get("dot", ""),
                          dot_options);
    std::printf("observed network written to %s\n",
                opts.get("dot", "").c_str());
  }
  if (opts.get_bool("trace", false)) {
    util::Table table({"#", "target", "class", "outcome", "marginal",
                       "cumulative"});
    for (std::size_t i = 0; i < result.trace.size(); ++i) {
      const RequestRecord& r = result.trace[i];
      table.row()
          .cell_int(static_cast<long long>(i + 1))
          .cell_int(r.target)
          .cell(r.cautious_target ? "cautious" : "reckless")
          .cell(r.accepted ? "accepted" : "rejected")
          .cell(r.marginal(), 1)
          .cell(r.benefit_after, 1);
    }
    table.print(std::cout);
  }
  return 0;
}

int cmd_compare(const util::Options& opts) {
  const AccuInstance instance = load_instance(opts);
  const auto k = static_cast<std::uint32_t>(opts.get_int("k", 100));
  const auto runs = static_cast<std::uint32_t>(opts.get_int("runs", 10));
  ExperimentConfig config;
  config.budget = k;
  config.samples = 1;  // the instance is fixed: repeat realizations only
  config.runs = runs;
  config.seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  config.threads = static_cast<std::uint32_t>(opts.get_int("threads", 0));
  config.cell_threads =
      static_cast<std::uint32_t>(opts.get_int("cell-threads", 1));
  config.simd = simd::parse_isa(opts.get("simd", "auto"));
  config.faults = fault_config(opts);
  config.retry = retry_policy(opts);
  config.feedback = feedback_model(opts);
  config.checkpoint_path = opts.get("resume", "");
  config.cell_deadline_ms =
      static_cast<std::uint32_t>(opts.get_int("deadline-ms", 0));
  config.max_cell_retries =
      static_cast<std::uint32_t>(opts.get_int("max-cell-retries", 0));
  config.durability.mode =
      util::DurabilityPolicy::parse_mode(opts.get("durability", "strict"));
  config.durability.group_cells = static_cast<std::uint32_t>(
      opts.get_int("group-cells", config.durability.group_cells));
  config.durability.group_ms = static_cast<std::uint32_t>(
      opts.get_int("group-ms", config.durability.group_ms));
  config.durability.validate();
  if (opts.has("shard")) {
    // This invocation runs one shard of the (sample, run) grid; per-shard
    // checkpoints merge later via `accu merge`.
    const auto shard = parse_shard_spec(opts.get("shard", ""));
    config.shard_index = shard.first;
    config.shard_count = shard.second;
  }
  // Ctrl-C (or SIGTERM) stops the sweep at cell granularity instead of
  // killing the process: completed cells stay checkpointed and resumable.
  config.interrupt_flag = &g_interrupted;
  install_interrupt_handlers();
  const InstanceFactory factory = [&instance](std::uint32_t, std::uint64_t) {
    return instance;
  };
  // The roster lives in serve/job.cpp so daemon-produced reports stay
  // byte-identical to direct compare reports.
  const std::vector<StrategyFactory> strategies = serve::compare_roster();
  const ExperimentResult result = run_experiment(factory, strategies, config);
  if (config.shard_count > 1) {
    std::fprintf(stderr,
                 "shard %u/%u: the table below covers only this shard's "
                 "cells; combine the shard checkpoints with 'accu merge'\n",
                 config.shard_index, config.shard_count);
  }
  const bool faulty = config.faults.total_rate() > 0.0;
  std::vector<std::string> headers = {"policy", "benefit", "±95%", "friends",
                                      "cautious friends"};
  if (faulty) {
    headers.insert(headers.end(),
                   {"faulted", "retries", "suspended", "abandoned"});
  }
  util::Table table(headers);
  for (std::size_t i = 0; i < result.strategy_names.size(); ++i) {
    const TraceAggregator& agg = result.aggregates[i];
    auto& row = table.row()
                    .cell(result.strategy_names[i])
                    .cell(agg.total_benefit().mean(), 1)
                    .cell(agg.total_benefit().ci95_halfwidth(), 1)
                    .cell(agg.accepted_requests().mean(), 1)
                    .cell(agg.cautious_friends().mean(), 2);
    if (faulty) {
      row.cell(agg.faulted_requests().mean(), 1)
          .cell(agg.retries().mean(), 1)
          .cell(agg.suspended_rounds().mean(), 1)
          .cell(agg.abandoned_targets().mean(), 1);
    }
  }
  table.print(std::cout);
  std::size_t errors = 0, deadlines = 0, cancelled = 0;
  for (const CellFailure& failure : result.failures) {
    switch (failure.kind) {
      case CellFailure::Kind::kError: ++errors; break;
      case CellFailure::Kind::kDeadline: ++deadlines; break;
      case CellFailure::Kind::kCancelled: ++cancelled; break;
    }
    std::fprintf(stderr,
                 "warning: cell (sample %u, run %u) %s after %u attempt%s "
                 "(%.0f ms): %s\n",
                 failure.sample, failure.run,
                 cell_failure_kind_name(failure.kind), failure.attempts,
                 failure.attempts == 1 ? "" : "s", failure.elapsed_ms,
                 failure.error.c_str());
  }
  if (!result.failures.empty() || result.cells_retried > 0) {
    std::fprintf(stderr,
                 "cells: %zu error, %zu deadline-exceeded, %zu cancelled; "
                 "%u retried after a blown deadline\n",
                 errors, deadlines, cancelled, result.cells_retried);
  }
  if (result.interrupted) {
    if (config.checkpoint_path.empty()) {
      std::fprintf(stderr,
                   "interrupted: partial results above; use "
                   "--resume=FILE to make an interrupted sweep resumable\n");
    } else {
      std::fprintf(stderr,
                   "interrupted: completed cells are saved; resume with "
                   "--resume=%s\n",
                   config.checkpoint_path.c_str());
    }
    return util::exit_code::kInterrupted;
  }
  if (opts.has("report")) {
    std::ofstream os(opts.get("report", ""));
    if (!os) throw IoError("cannot open --report file");
    ReportOptions report_options;
    report_options.title = "accu compare — " + opts.get("in", "");
    write_markdown_report(result, config, os, report_options);
    std::printf("markdown report written to %s\n",
                opts.get("report", "").c_str());
  }
  if (opts.has("curves")) {
    std::ofstream os(opts.get("curves", ""));
    if (!os) throw IoError("cannot open --curves file");
    write_curves_csv(result, os);
    std::printf("curve CSV written to %s\n", opts.get("curves", "").c_str());
  }
  return 0;
}

int cmd_merge(const util::Options& opts) {
  const std::vector<std::string>& paths = opts.positional();
  if (paths.empty()) {
    throw InvalidArgument(
        "merge: pass the shard checkpoint files as positional arguments "
        "(accu merge --out=MERGED shard0.ckpt shard1.ckpt ...)");
  }
  const ShardMergeOutcome merged =
      merge_shard_checkpoints(paths, opts.get("out", ""));
  util::Table shards({"input", "cells"});
  for (std::size_t i = 0; i < paths.size(); ++i) {
    shards.row().cell(paths[i]).cell_int(
        static_cast<long long>(merged.shard_cells[i]));
  }
  shards.print(std::cout);
  const std::size_t grid = static_cast<std::size_t>(merged.config.samples) *
                           merged.config.runs;
  std::printf("merged %zu of %zu cells (%zu duplicate, %zu missing)\n",
              merged.cells_merged, grid, merged.duplicate_cells,
              merged.cells_missing);
  util::Table table({"policy", "benefit", "±95%", "friends",
                     "cautious friends"});
  for (std::size_t s = 0; s < merged.result.strategy_names.size(); ++s) {
    const TraceAggregator& agg = merged.result.aggregates[s];
    table.row()
        .cell(merged.result.strategy_names[s])
        .cell(agg.total_benefit().mean(), 1)
        .cell(agg.total_benefit().ci95_halfwidth(), 1)
        .cell(agg.accepted_requests().mean(), 1)
        .cell(agg.cautious_friends().mean(), 2);
  }
  table.print(std::cout);
  if (opts.has("out")) {
    std::printf("merged checkpoint written to %s\n",
                opts.get("out", "").c_str());
  }
  if (opts.has("report")) {
    std::ofstream os(opts.get("report", ""));
    if (!os) throw IoError("cannot open --report file");
    ReportOptions report_options;
    report_options.title = "accu merge";
    write_markdown_report(merged.result, merged.config, os, report_options);
    std::printf("markdown report written to %s\n",
                opts.get("report", "").c_str());
  }
  if (opts.has("curves")) {
    std::ofstream os(opts.get("curves", ""));
    if (!os) throw IoError("cannot open --curves file");
    write_curves_csv(merged.result, os);
    std::printf("curve CSV written to %s\n", opts.get("curves", "").c_str());
  }
  if (merged.cells_missing > 0 && !opts.get_bool("allow-missing", false)) {
    std::fprintf(stderr,
                 "merge: %zu grid cells missing — run the absent shards "
                 "and re-merge (--allow-missing accepts a partial merge)\n",
                 merged.cells_missing);
    return util::exit_code::kMissingCells;
  }
  return 0;
}

int cmd_assess(const util::Options& opts) {
  const AccuInstance instance = load_instance(opts);
  defense::AttackModel model;
  model.budget = static_cast<std::uint32_t>(opts.get_int("k", 100));
  model.trials = static_cast<std::uint32_t>(opts.get_int("trials", 20));
  model.seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  const defense::VulnerabilityReport report =
      defense::assess(instance, model);
  std::printf("attacker benefit: %.1f ± %.1f; expected cautious capture "
              "rate: %.3f\n",
              report.attacker_benefit.mean(),
              report.attacker_benefit.ci95_halfwidth(),
              report.mean_capture_rate);
  const auto top = report.most_vulnerable(
      static_cast<std::size_t>(opts.get_int("top", 10)));
  util::Table table({"user", "degree", "θ", "capture probability"});
  for (const NodeId v : top) {
    double prob = 0.0;
    for (std::size_t i = 0; i < report.cautious_users.size(); ++i) {
      if (report.cautious_users[i] == v) prob = report.capture_probability[i];
    }
    table.row()
        .cell_int(v)
        .cell_int(instance.graph().degree(v))
        .cell_int(instance.threshold(v))
        .cell(prob, 3);
  }
  std::cout << "most vulnerable cautious users:\n";
  table.print(std::cout);
  const auto gateways = report.top_gateways(
      static_cast<std::size_t>(opts.get_int("top", 10)));
  if (!gateways.empty()) {
    util::Table gw({"gateway user", "degree",
                    "cautious captures enabled / attack"});
    for (const NodeId v : gateways) {
      gw.row()
          .cell_int(v)
          .cell_int(instance.graph().degree(v))
          .cell(report.gateway_score[v], 3);
    }
    std::cout << "gateway accounts (protect these friendships first):\n";
    gw.print(std::cout);
  }
  return 0;
}

int cmd_swarm(const util::Options& opts) {
  const AccuInstance instance = load_instance(opts);
  if (instance.has_generalized_cautious()) {
    throw InvalidArgument(
        "swarm: multi-bot attacks cover the deterministic cautious model");
  }
  const auto k = static_cast<std::uint32_t>(opts.get_int("k", 100));
  const auto repeats =
      static_cast<std::uint32_t>(opts.get_int("runs", 5));
  util::Rng rng(static_cast<std::uint64_t>(opts.get_int("seed", 1)));
  util::Table table({"#bots", "rounds", "benefit", "±95%",
                     "cautious friends"});
  for (const BotId bots : {1u, 2u, 4u, 8u}) {
    util::RunningStat benefit, cautious, rounds;
    for (std::uint32_t r = 0; r < repeats; ++r) {
      util::Rng run_rng = rng.split(bots * 1000 + r);
      const MultiBotRealization truth =
          MultiBotRealization::sample(instance, bots, run_rng);
      MultiBotAbm coalition({opts.get_double("wd", 0.5),
                             opts.get_double("wi", 0.5)});
      util::Rng policy_rng = run_rng.split(3);
      const MultiBotResult result =
          simulate_multibot(instance, truth, coalition, k, bots, policy_rng);
      benefit.add(result.total_benefit);
      cautious.add(result.num_cautious_friends);
      rounds.add(result.rounds);
    }
    table.row()
        .cell_int(bots)
        .cell(rounds.mean(), 1)
        .cell(benefit.mean(), 1)
        .cell(benefit.ci95_halfwidth(), 1)
        .cell(cautious.mean(), 2);
  }
  table.print(std::cout);
  return 0;
}

int cmd_ratio(const util::Options& opts) {
  const AccuInstance instance = load_instance(opts);
  if (instance.num_nodes() > 12) {
    throw InvalidArgument("ratio: brute force needs <= 12 users (got " +
                          std::to_string(instance.num_nodes()) + ")");
  }
  const Realization certain = Realization::certain(instance);
  std::printf("RASR λ_φ (certain world): %.6f\n",
              realization_submodular_ratio(instance, certain));
  const double lambda = adaptive_submodular_ratio(instance);
  std::printf("adaptive submodular ratio λ: %.6f\n", lambda);
  std::printf("Theorem 1 greedy guarantee 1−e^{−λ}: %.6f\n",
              theorem1_ratio(lambda, 1, 1));
  if (instance.num_cautious() == 1) {
    std::printf("Lemma 4 closed-form estimate: %.6f\n",
                lemma4_lambda(instance, certain));
  }
  return 0;
}

int cmd_serve(const util::Options& opts) {
  const std::vector<std::string>& pos = opts.positional();
  const std::string action = pos.empty() ? "" : pos[0];
  const std::string root = opts.get("root", "");
  if (root.empty()) {
    throw InvalidArgument("serve: missing --root=DIR (the daemon's state "
                          "directory)");
  }
  if (action == "run") {
    serve::ServeConfig config;
    config.root = root;
    config.workers =
        static_cast<std::uint32_t>(opts.get_int("workers", 2));
    config.admission.max_queued =
        static_cast<std::size_t>(opts.get_int("max-queued", 16));
    config.admission.start_rate = opts.get_double("rate", 4.0);
    config.admission.start_burst = opts.get_double("burst", 4.0);
    config.admission.crash_budget =
        static_cast<std::uint32_t>(opts.get_int("crash-budget", 3));
    config.poll_ms =
        static_cast<std::uint32_t>(opts.get_int("poll-ms", 50));
    config.exit_when_idle = opts.get_bool("exit-when-idle", false);
    // SIGTERM/SIGINT drain the queue at cell granularity; every
    // non-terminal job stays resumable by the next `accu serve run`.
    config.stop_flag = &g_interrupted;
    install_interrupt_handlers();
    return serve::run_daemon(config);
  }
  if (action == "submit") {
    serve::JobSpec spec;
    spec.kind = opts.get("kind", spec.kind);
    spec.instance = opts.get("in", "");
    spec.dataset = opts.get("dataset", spec.dataset);
    spec.scale = opts.get_double("scale", spec.scale);
    spec.cautious =
        static_cast<std::uint32_t>(opts.get_int("cautious", spec.cautious));
    spec.budget = static_cast<std::uint32_t>(opts.get_int("k", 100));
    spec.samples =
        static_cast<std::uint32_t>(opts.get_int("samples", spec.samples));
    spec.runs = static_cast<std::uint32_t>(opts.get_int("runs", 10));
    spec.seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
    spec.fault_rate = opts.get_double("fault-rate", 0.0);
    spec.suspension_rounds =
        static_cast<std::uint32_t>(opts.get_int("suspension-rounds", 3));
    spec.retry = opts.get("retry", "none");
    spec.feedback = opts.get("feedback", spec.feedback);
    spec.feedback_delay = static_cast<std::uint32_t>(
        opts.get_int("feedback-delay", spec.feedback_delay));
    spec.cell_deadline_ms =
        static_cast<std::uint32_t>(opts.get_int("deadline-ms", 0));
    spec.max_cell_retries =
        static_cast<std::uint32_t>(opts.get_int("max-cell-retries", 0));
    spec.deadline_ms =
        static_cast<std::uint64_t>(opts.get_int("job-deadline-ms", 0));
    spec.threads = static_cast<std::uint32_t>(opts.get_int("threads", 1));
    spec.cell_threads =
        static_cast<std::uint32_t>(opts.get_int("cell-threads", 1));
    spec.simd = opts.get("simd", "auto");
    spec.durability = opts.get("durability", spec.durability);
    spec.group_cells = static_cast<std::uint32_t>(
        opts.get_int("group-cells", spec.group_cells));
    spec.group_ms =
        static_cast<std::uint32_t>(opts.get_int("group-ms", spec.group_ms));
    // Round-trip through the descriptor parser so a bad submission fails
    // here, at the keyboard, instead of poisoning the daemon's queue.
    (void)serve::parse_job(serve::serialize_job(spec));
    std::filesystem::create_directories(root + "/spool");
    const std::string path =
        serve::submit_job(root + "/spool", spec, opts.get("name", ""));
    std::printf("queued %s\n", path.c_str());
    return util::exit_code::kOk;
  }
  if (action == "status") {
    const std::vector<serve::JobStatus> status = serve::read_status(root);
    if (status.empty()) {
      std::printf("no jobs at %s\n", root.c_str());
      return util::exit_code::kOk;
    }
    util::Table table({"job", "state", "cells", "cell ms", "eta s",
                       "crashes", "detail"});
    for (const serve::JobStatus& job : status) {
      char cells[48];
      std::snprintf(cells, sizeof cells, "%zu/%zu", job.cells_done,
                    job.cells_total);
      table.row()
          .cell(job.id)
          .cell(job.state)
          .cell(cells)
          .cell(job.ema_cell_ms, 1)
          .cell(job.eta_s, 1)
          .cell_int(static_cast<long long>(job.crashes))
          .cell(job.detail);
    }
    table.print(std::cout);
    return util::exit_code::kOk;
  }
  if (action == "stop") {
    serve::request_stop(root);
    std::printf("drain requested at %s (the daemon exits once every worker "
                "has stopped at a cell boundary)\n",
                root.c_str());
    return util::exit_code::kOk;
  }
  std::fprintf(stderr,
               "usage: accu serve <run|submit|status|stop> --root=DIR\n");
  return util::exit_code::kUsage;
}

int dispatch(int argc, char** argv) {
  if (argc < 2) {
    std::fputs(kUsage, stderr);
    return util::exit_code::kUsage;
  }
  const std::string command = argv[1];
  util::Options opts(argc - 1, argv + 1);
  opts.declare("in", "instance file to read")
      .declare("out", "output file")
      .declare("dataset", "dataset name (generate)")
      .declare("edges", "ingest a real edge-list snapshot (generate)")
      .declare("scale", "dataset scale (generate)")
      .declare("cautious", "number of cautious users (generate)")
      .declare("cautious-bf", "cautious friend benefit (generate)")
      .declare("theta", "threshold fraction (generate)")
      .declare("q1", "generalized below-threshold acceptance (generate)")
      .declare("q2", "generalized at-threshold acceptance (generate)")
      .declare("seed", "random seed")
      .declare("policy", "attack policy (attack)")
      .declare("k", "request budget")
      .declare("wd", "ABM direct weight")
      .declare("wi", "ABM indirect weight")
      .declare("batch", "batch size for --policy=batched")
      .declare("trace", "print the full request trace (attack)")
      .declare("dot", "write the observed network as GraphViz DOT (attack)")
      .declare("runs", "repetitions (compare)")
      .declare("trials", "Monte Carlo trials (assess)")
      .declare("threads", "worker threads (compare)")
      .declare("cell-threads",
               "intra-cell task-pool width; trace-invariant (compare, "
               "serve submit)")
      .declare("simd",
               "score kernel ISA: auto | scalar | avx2 | neon (attack, "
               "compare, serve submit)")
      .declare("report", "write a Markdown report (compare)")
      .declare("curves", "write long-format curve CSV (compare)")
      .declare("top", "how many users to list (assess)")
      .declare("fault-rate",
               "total per-request fault probability, split evenly over "
               "drop/timeout/transient/rate-limit (attack, compare)")
      .declare("suspension-rounds",
               "rounds lost per rate-limit suspension (default 3)")
      .declare("retry", "retry policy: none|fixed|exp (attack, compare)")
      .declare("feedback",
               "feedback model: full|myopic|delayed|batched (attack, "
               "compare, serve submit)")
      .declare("feedback-delay",
               "rounds late for --feedback=delayed, batch period for "
               "--feedback=batched")
      .declare("resume",
               "checkpoint file: load completed cells and append new ones "
               "(compare)")
      .declare("deadline-ms",
               "wall-clock budget per cell in ms; 0 = none (attack, compare)")
      .declare("max-cell-retries",
               "re-run a deadline-cancelled cell up to this many times with "
               "a fresh seed stream (attack, compare)")
      .declare("shard",
               "run one shard i/n of the (sample, run) grid (compare); "
               "merge the per-shard checkpoints with 'accu merge'")
      .declare("allow-missing",
               "exit 0 even when grid cells are absent from every input "
               "(merge)")
      .declare("root", "serve state directory (serve)")
      .declare("workers", "max concurrent worker processes (serve run)")
      .declare("max-queued", "admission bound on queued+running jobs "
               "(serve run)")
      .declare("rate", "token-bucket job-start rate per second (serve run)")
      .declare("burst", "token-bucket burst size (serve run)")
      .declare("crash-budget",
               "worker crashes before a job is quarantined (serve run)")
      .declare("poll-ms", "scheduler tick in ms (serve run)")
      .declare("exit-when-idle",
               "exit once the queue is empty and jobs are terminal "
               "(serve run)")
      .declare("name", "spool file base name (serve submit)")
      .declare("kind", "job kind: compare|simulate|sweep (serve submit)")
      .declare("samples", "sample networks per dataset (serve submit)")
      .declare("job-deadline-ms",
               "whole-job wall-clock deadline; 0 = none (serve submit)")
      .declare("durability",
               "checkpoint fsync cadence: strict (every cell, default) | "
               "grouped (every group-cells / group-ms, forced flush on "
               "stop) (compare, serve submit)")
      .declare("group-cells",
               "grouped durability: fsync every N cells (default 64)")
      .declare("group-ms",
               "grouped durability: fsync at least every T ms "
               "(default 100)")
      .declare("nodes", "user count (synth)")
      .declare("avg-degree", "target mean total degree (synth)")
      .declare("alpha", "degree-tail exponent in (2, 8] (synth)")
      .declare("batch-bytes",
               "scatter-pass bucket buffer cap in bytes (synth)");
  opts.check_unknown();
  if (command == "generate") return cmd_generate(opts);
  if (command == "stats") return cmd_stats(opts);
  if (command == "attack") return cmd_attack(opts);
  if (command == "compare") return cmd_compare(opts);
  if (command == "merge") return cmd_merge(opts);
  if (command == "assess") return cmd_assess(opts);
  if (command == "swarm") return cmd_swarm(opts);
  if (command == "ratio") return cmd_ratio(opts);
  if (command == "serve") return cmd_serve(opts);
  if (command == "pack") return cmd_pack(opts);
  if (command == "unpack") return cmd_unpack(opts);
  if (command == "synth") return cmd_synth(opts);
  std::fputs(kUsage, stderr);
  return util::exit_code::kUsage;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return dispatch(argc, argv);
  } catch (const accu::DiskFullError& e) {
    std::fprintf(stderr,
                 "accu: disk full — %s\n"
                 "accu: the checkpoint on disk is a valid prefix; free "
                 "space and rerun with the same --resume to continue\n",
                 e.what());
    return util::exit_code::kDiskFull;
  } catch (const accu::SyncFailedError& e) {
    std::fprintf(stderr,
                 "accu: fsync failed — %s\n"
                 "accu: cells synced before the failure are safe; rerun "
                 "with the same --resume once the device recovers\n",
                 e.what());
    return util::exit_code::kSyncLost;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "accu: %s\n", e.what());
    return util::exit_code::kFailure;
  }
}
