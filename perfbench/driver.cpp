// perfbench_driver: runs one benchmark workload in this process and prints
// its metrics as one JSON object on the last line of stdout.
//
//   perfbench_driver --workload W --seed N --seconds S --trace 0|1
//                    --work DIR [--synth FILE] [--small]
//   perfbench_driver --gen-synth FILE --seed N [--small]
//   perfbench_driver --selftest --work DIR
//
// The driver times only calls into the library's public functions.  An
// untraced run (--trace 0) measures the end-to-end metrics; a traced run
// (--trace 1) wraps the same calls from outside (probes.hpp) and adds the
// per-layer metrics.  perfbench/run.py builds this driver, runs it and
// prints the metrics BENCHMARK.json names; README.md documents them.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "core/instance_format.hpp"
#include "core/instance_io.hpp"
#include "core/report.hpp"
#include "core/score.hpp"
#include "core/score_simd.hpp"
#include "datasets/datasets.hpp"
#include "datasets/stream_gen.hpp"
#include "probes.hpp"
#include "serve/daemon.hpp"
#include "serve/job.hpp"
#include "util/atomic_file.hpp"
#include "util/crc32.hpp"
#include "util/exit_codes.hpp"
#include "util/io_env.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using accu::AccuInstance;
using accu::ExperimentConfig;
using accu::ExperimentResult;
using accu::InstanceFactory;
using accu::StrategyFactory;

// ---------------------------------------------------------------------------
// Workloads.  Every number here is part of the benchmark's definition; the
// reasons for each choice are in README.md.

/// The seed whose report digests are committed below.
constexpr std::uint64_t kDefaultSeed = 1;
/// Setup is repeated this many times; setup_s is the median.
constexpr std::size_t kSetupReps = 9;
/// A traced sweep fails when more than this share of its wall-clock falls
/// outside both its cells and the spans around them.
constexpr double kUnattributedLimit = 0.05;

enum class Kind { kSweep, kServe, kSynth };

struct Workload {
  std::string name;
  Kind kind = Kind::kSweep;
  std::string dataset = "facebook";
  double scale = 1.0;
  std::uint32_t cautious = 100;
  std::uint32_t budget = 100;
  std::uint32_t samples = 1;
  std::uint32_t runs = 1;
  std::string feedback = "full";
  std::uint32_t feedback_delay = 0;
  double fault_rate = 0.0;
  std::string retry = "none";
  /// Regenerate each sample inside the timed sweep (instances change every
  /// few cells) instead of reusing the instance built during setup.
  bool generate_in_sweep = false;
  bool abm_only = false;
  std::uint64_t synth_nodes = 250'000;
  /// crc32 of the report at kDefaultSeed (full size only).
  std::uint32_t digest = 0;
};

std::optional<Workload> find_workload(const std::string& name, bool small) {
  Workload w;
  w.name = name;
  if (name == "sweep-twitter") {
    w.dataset = "twitter";
    w.scale = small ? 0.02 : 0.1;
    w.runs = small ? 2 : 12;
    w.digest = 0xe198e5d7;
  } else if (name == "sweep-facebook-delayed-faults") {
    w.scale = small ? 0.1 : 1.0;
    w.samples = small ? 2 : 3;
    w.runs = 2;
    w.feedback = "delayed";
    w.feedback_delay = 3;
    w.fault_rate = 0.2;
    w.retry = "exp";
    w.generate_in_sweep = true;
    w.digest = 0xbbea1fd5;
  } else if (name == "serve-facebook-tiny") {
    w.kind = Kind::kServe;
    w.scale = 0.03;
    w.cautious = 10;
    w.budget = 8;
    w.runs = small ? 24 : 960;
    w.digest = 0x681dcb8a;
  } else if (name == "load-synth-250k") {
    w.kind = Kind::kSynth;
    w.abm_only = true;
    w.runs = small ? 1 : 4;
    w.synth_nodes = small ? 20'000 : 250'000;
    w.digest = 0xc9a28f21;
  } else {
    return std::nullopt;
  }
  if (small) w.digest = 0;
  return w;
}

const char* const kWorkloadNames[] = {"sweep-twitter",
                                      "sweep-facebook-delayed-faults",
                                      "serve-facebook-tiny", "load-synth-250k"};

/// Metric-name labels for the compare roster, in roster order.
const char* const kPolicyLabels[] = {"ABM", "Greedy", "MaxDegree", "PageRank",
                                     "Random"};

std::vector<StrategyFactory> roster_for(const Workload& w) {
  std::vector<StrategyFactory> roster = accu::serve::compare_roster();
  if (w.abm_only) roster.resize(1);  // PageRank's reset would hide the rest
  return roster;
}

accu::datasets::DatasetConfig dataset_config(const Workload& w) {
  accu::datasets::DatasetConfig config;
  config.scale = w.scale;
  config.num_cautious = w.cautious;
  return config;
}

accu::datasets::StreamGenConfig synth_config(const Workload& w,
                                             std::uint64_t seed) {
  accu::datasets::StreamGenConfig config;
  config.num_nodes = w.synth_nodes;
  config.num_cautious = w.cautious;
  config.seed = seed;
  return config;
}

ExperimentConfig sweep_config(const Workload& w, std::uint64_t seed) {
  ExperimentConfig config;
  config.budget = w.budget;
  config.samples = w.samples;
  config.runs = w.runs;
  config.seed = seed;
  config.threads = 1;
  config.faults = accu::FaultConfig::uniform(w.fault_rate, 3);
  config.retry = accu::util::RetryPolicy::parse(w.retry);
  config.feedback = accu::FeedbackModel::parse(w.feedback, w.feedback_delay);
  return config;
}

accu::serve::JobSpec serve_spec(const Workload& w, const std::string& net,
                                std::uint64_t seed) {
  accu::serve::JobSpec spec;
  spec.kind = "compare";
  spec.instance = net;
  spec.budget = w.budget;
  spec.runs = w.runs;
  spec.seed = seed;
  spec.threads = 1;
  spec.durability = "grouped";
  return spec;
}

constexpr std::uint32_t kServeWorkers = 2;
const char* const kServeJobId = "job0001";  // first job of a fresh root

// ---------------------------------------------------------------------------
// Small helpers.

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// A run's throughput from its per-sweep (per-job) throughputs: the
/// median over the whole timed phase.  On a shared host the speed of one
/// sweep swings with co-tenants' load; the median of a long run's sweeps
/// moves less than any single sweep or any upper quantile.
double throughput(const std::vector<double>& per_sweep) {
  return median(per_sweep);
}

/// Writes one run's per-sweep (per-job) series to stderr, in run order.
void log_series(const char* what, const std::vector<double>& v) {
  std::string line = std::string("perfbench: ") + what + ":";
  for (const double x : v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, " %.4g", x);
    line += buf;
  }
  std::fprintf(stderr, "%s\n", line.c_str());
}

template <class F>
double time_ms(F&& f) {
  const Clock::time_point t0 = Clock::now();
  f();
  return ms_between(t0, Clock::now());
}

/// Median wall-clock of `reps` calls, in ms.
template <class F>
double median_ms(int reps, F&& f) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) v.push_back(time_ms(f));
  return median(v);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string report_text(const ExperimentResult& result,
                        const ExperimentConfig& config,
                        const std::string& title) {
  accu::ReportOptions options;
  options.title = title;
  std::ostringstream os;
  accu::write_markdown_report(result, config, os, options);
  return os.str();
}

std::string hex32(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", v);
  return buf;
}

/// Metrics in print order; values keep every digit they were measured with.
struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void set(const std::string& name, double value, const std::string& unit) {
    for (auto& item : items) {
      if (item.first == name) {
        item.second = {value, unit};
        return;
      }
    }
    items.push_back({name, {value, unit}});
  }
  [[nodiscard]] double get(const std::string& name) const {
    for (const auto& item : items) {
      if (item.first == name) return item.second.first;
    }
    return 0.0;
  }
};

/// What every run reports besides its metrics.
struct Tally {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
  /// Counts one sweep or job: a failed output check fails all its cells.
  void cells(std::uint64_t grid, std::uint64_t failed_cells, bool check_ok) {
    attempted += grid;
    failed += check_ok ? failed_cells : grid;
  }
};

std::size_t failed_cells(const ExperimentResult& result,
                         std::uint32_t runs) {
  std::size_t n = 0;
  for (const accu::CellFailure& f : result.failures) {
    n += f.run == accu::CellFailure::kAllRuns ? runs : 1;
  }
  return n;
}

/// The check every report must pass: its CRC matches the run's first
/// report (same seed, same bytes) and, at kDefaultSeed, the digest
/// committed for the workload.
struct OutputCheck {
  std::optional<std::uint32_t> expected;  // committed digest
  std::optional<std::uint32_t> first;     // first report of this run

  bool check(const std::string& report, Tally& tally,
             const std::string& what) {
    const std::uint32_t crc = accu::util::crc32(report);
    if (!first) first = crc;
    if (crc != *first) {
      tally.fail(what + ": report crc " + hex32(crc) +
                 " differs from this run's first " + hex32(*first));
      return false;
    }
    if (expected && crc != *expected) {
      tally.fail(what + ": report crc " + hex32(crc) +
                 " differs from the committed digest " + hex32(*expected));
      return false;
    }
    return true;
  }
};

// ---------------------------------------------------------------------------
// Traced-sweep bookkeeping.

/// Everything traced sweeps record from outside.
struct TraceState {
  SpanLog log;
  std::vector<PolicyStats> policies;
  std::vector<double> cell_ms;
  double sweep_ms = 0.0;  // wall-clock of the traced run_experiment calls
  double factory_ms = 0.0;
  double progress_ms = 0.0;
  std::uint64_t factory_calls = 0;
  std::uint64_t sweeps = 0;
  // Fault accounting summed from the sweeps' aggregates.
  double faulted = 0.0, retries = 0.0, suspended = 0.0, abandoned = 0.0;
  CountingIoEnv io;
};

InstanceFactory timed_factory(const InstanceFactory& inner, TraceState& t) {
  return [&inner, &t](std::uint32_t sample, std::uint64_t seed) {
    const Clock::time_point t0 = Clock::now();
    AccuInstance instance = inner(sample, seed);
    const Clock::time_point t1 = Clock::now();
    t.factory_ms += ms_between(t0, t1);
    ++t.factory_calls;
    t.log.add(SpanKind::kFactory, 0xff, t0, t1);
    return instance;
  };
}

/// Arms `config` for a traced sweep: a timed progress hook that records
/// each cell's wall-clock and closes the cell in the span log.
void arm_progress(ExperimentConfig& config, TraceState& t) {
  config.progress = [&t](const accu::ExperimentProgress& p) {
    const Clock::time_point t0 = Clock::now();
    if (p.restored) return;
    t.cell_ms.push_back(p.cell_ms);
    const Clock::time_point t1 = Clock::now();
    t.progress_ms += ms_between(t0, t1);
    t.log.add(SpanKind::kProgress, 0xff, t0, t1);
    t.log.next_cell();
  };
}

/// One traced run_experiment call.
ExperimentResult traced_sweep(const InstanceFactory& factory,
                              const std::vector<StrategyFactory>& roster,
                              ExperimentConfig config, TraceState& t) {
  arm_progress(config, t);
  ExperimentResult result;
  {
    const accu::util::ScopedIoEnv env(t.io);
    const Clock::time_point t0 = Clock::now();
    result = accu::run_experiment(factory, roster, config);
    t.sweep_ms += ms_between(t0, Clock::now());
  }
  ++t.sweeps;
  for (const accu::TraceAggregator& a : result.aggregates) {
    auto total = [](const accu::util::RunningStat& s) {
      return s.mean() * static_cast<double>(s.count());
    };
    t.faulted += total(a.faulted_requests());
    t.retries += total(a.retries());
    t.suspended += total(a.suspended_rounds());
    t.abandoned += total(a.abandoned_targets());
  }
  return result;
}

/// Replays the per-cell layers the sweep runs inside the library —
/// Realization resample, view reset, ScorePack build and the aggregator
/// fold — on the workload's own instance, and records them as replayed.
void replay_cell_layers(const AccuInstance& instance,
                        const std::vector<StrategyFactory>& roster,
                        const ExperimentConfig& config, std::uint64_t seed,
                        Metrics& m) {
  accu::SimWorkspace ws;
  accu::util::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  const int reps = instance.num_nodes() > 100'000 ? 5 : 30;
  const double resample_ms = median_ms(reps, [&] {
    (void)ws.sample_truth(instance, rng);
  });
  const double view_ms = median_ms(reps, [&] {
    (void)ws.reset_view(instance);
  });
  accu::ScorePack pack;
  const double pack_ms = median_ms(reps, [&] { pack.build(instance); });

  // One real simulation result to fold.
  std::unique_ptr<accu::Strategy> policy = roster.front().make();
  accu::util::Rng policy_rng(seed);
  accu::SimulationResult sim;
  const accu::Realization& truth = ws.sample_truth(instance, rng);
  accu::simulate_into(instance, truth, *policy, config.budget, policy_rng,
                      ws.reset_view(instance), ws, sim);
  accu::TraceAggregator agg;
  const double add_ms =
      median_ms(reps * 10, [&] { agg.add(sim, config.budget); });

  m.set("realization.resample_us", resample_ms * 1e3, "us");
  m.set("observation.reset_view_us", view_ms * 1e3, "us");
  m.set("score.pack_build_ms", pack_ms, "ms");
  m.set("experiment.aggregate_us", add_ms * 1e3, "us");
}

/// Per-policy, engine, feedback, fault and cell metrics of traced sweeps.
/// A mean over calls is printed only when the calls happened.  Fails the
/// run when the sweeps' wall-clock is not accounted for by their cells and
/// the spans outside them.
void emit_sweep_trace(const TraceState& t, Metrics& m, Tally& tally) {
  const double cells =
      std::max<double>(1.0, static_cast<double>(t.cell_ms.size()));
  double cell_total_ms = 0.0;
  for (const double c : t.cell_ms) cell_total_ms += c;

  double in_cell_span_ms = 0.0;
  for (const Span& s : t.log.spans()) {
    if (s.kind == SpanKind::kFactory || s.kind == SpanKind::kProgress) {
      continue;
    }
    in_cell_span_ms += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
  }
  auto per = [](double total, std::uint64_t n) {
    return total / static_cast<double>(n);
  };
  std::uint64_t observes = 0, revelations = 0, adopts = 0;
  double revelation_ms = 0.0;
  // Every compare-roster policy gets its counts; one a workload does not
  // run has zero selects and zero busy time.
  for (std::size_t i = 0; i < std::size(kPolicyLabels); ++i) {
    const PolicyStats s = i < t.policies.size() ? t.policies[i] : PolicyStats{};
    const std::string p = std::string("strategies.") + kPolicyLabels[i];
    if (s.resets > 0) m.set(p + ".reset_ms", per(s.reset_ms, s.resets), "ms");
    if (s.selects > 0) {
      m.set(p + ".select_us", per(s.select_ms, s.selects) * 1e3, "us");
    }
    if (s.observes > 0) {
      m.set(p + ".observe_us", per(s.observe_ms, s.observes) * 1e3, "us");
    }
    m.set(p + ".selects", static_cast<double>(s.selects) / cells, "count");
    const double busy =
        s.reset_ms + s.select_ms + s.observe_ms + s.revelation_ms + s.pack_ms;
    m.set(p + ".busy_frac", busy / std::max(cell_total_ms, 1e-9), "frac");
    observes += s.observes;
    revelations += s.revelations;
    revelation_ms += s.revelation_ms;
    adopts += s.pack_adopts;
  }
  m.set("score.pack_adopted", static_cast<double>(adopts) / cells, "count");
  m.set("feedback.revelations", static_cast<double>(revelations) / cells,
        "count");
  if (revelations > 0) {
    m.set("feedback.revelation_us", per(revelation_ms, revelations) * 1e3,
          "us");
  }
  m.set("faults.faulted_requests", t.faulted / cells, "count");
  m.set("faults.retries", t.retries / cells, "count");
  m.set("faults.suspended_rounds", t.suspended / cells, "count");
  // Delivered requests reach the policy through observe(); abandoned
  // faults do too, as rejections.
  const double delivered = static_cast<double>(observes) - t.abandoned;
  const double attempted = delivered + t.faulted;
  m.set("faults.useful_request_frac",
        attempted > 0 ? delivered / attempted : 0.0, "frac");

  m.set("engine.residual_ms", (cell_total_ms - in_cell_span_ms) / cells,
        "ms");
  m.set("experiment.cell_ms_p50", percentile(t.cell_ms, 0.5), "ms");
  m.set("experiment.cell_ms_p90", percentile(t.cell_ms, 0.9), "ms");
  m.set("experiment.cell_samples", static_cast<double>(t.cell_ms.size()),
        "count");

  // Cells (measured by the library, spans and residual inside them) plus
  // the factory and progress spans outside them must cover the sweeps.
  const double unattributed =
      (t.sweep_ms - cell_total_ms - t.factory_ms - t.progress_ms) /
      std::max(t.sweep_ms, 1e-9);
  m.set("trace.unattributed_frac", unattributed, "frac");
  if (std::fabs(unattributed) > kUnattributedLimit) {
    tally.fail("trace: " + std::to_string(unattributed * 100.0) +
               "% of the traced sweeps' wall-clock is unattributed (limit " +
               std::to_string(kUnattributedLimit * 100.0) + "%)");
  }
}

void emit_checkpoint_io(const IoCounts& c, double cells, Metrics& m) {
  m.set("experiment.checkpoint_bytes", static_cast<double>(c.bytes) / cells,
        "B");
  m.set("experiment.fsyncs", static_cast<double>(c.fsyncs) / cells, "count");
  if (c.fsyncs > 0) {
    const double n = static_cast<double>(c.fsyncs);
    m.set("experiment.fsync_ms", c.fsync_ms / n, "ms");
    m.set("experiment.cells_per_fsync", cells / n, "count");
  }
}

/// Times write_markdown_report plus the durable atomic publish the daemon
/// uses for report.md.
void replay_report(const ExperimentResult& result,
                   const ExperimentConfig& config, const std::string& dir,
                   Metrics& m) {
  std::string text;
  const double ms = median_ms(5, [&] {
    text = report_text(result, config, "replay");
    accu::util::write_file_atomic(dir + "/replay-report.md", text);
  });
  m.set("report.write_ms", ms, "ms");
  m.set("report.bytes", static_cast<double>(text.size()), "B");
}

/// The workload's instance packed to .accui and loaded back, replayed.
void replay_binary_load(const AccuInstance& instance, const std::string& dir,
                        Metrics& m) {
  const std::string packed = dir + "/replay.accui";
  accu::write_instance_binary_file(instance, packed);
  m.set("instance_format.load_ms",
        median_ms(5, [&] { (void)accu::load_instance_auto(packed); }), "ms");
  m.set("instance_format.bytes", static_cast<double>(fs::file_size(packed)),
        "B");
  fs::remove(packed);
}

void write_trace_files(const std::string& work, const std::string& workload,
                       const TraceState& t) {
  const std::vector<std::string> names(std::begin(kPolicyLabels),
                                       std::end(kPolicyLabels));
  t.log.write_csv(work + "/spans-" + workload + ".csv", names);
  t.io.write_csv(work + "/io-" + workload + ".csv");
}

// ---------------------------------------------------------------------------
// Sweep workloads: sweep-twitter, sweep-facebook-delayed-faults and
// load-synth-250k all run run_experiment in a closed loop.

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool small = false;
  std::string work = ".bench_work";
  std::string synth;
};

OutputCheck output_check(const Workload& w, const Args& args) {
  OutputCheck output;
  if (args.seed == kDefaultSeed && w.digest != 0) output.expected = w.digest;
  return output;
}

struct SweepRun {
  ExperimentResult result;
  double seconds = 0.0;
};

SweepRun run_sweep(const InstanceFactory& factory,
                   const std::vector<StrategyFactory>& roster,
                   const ExperimentConfig& config) {
  SweepRun run;
  const Clock::time_point t0 = Clock::now();
  run.result = accu::run_experiment(factory, roster, config);
  run.seconds = ms_between(t0, Clock::now()) * 1e-3;
  return run;
}

void run_sweep_workload(const Workload& w, const Args& args, Metrics& m,
                        Tally& tally) {
  const accu::datasets::DatasetConfig dcfg = dataset_config(w);
  const InstanceFactory generate = [&dcfg, &w](std::uint32_t,
                                               std::uint64_t seed) {
    accu::util::Rng rng(seed);
    return accu::datasets::make_dataset(w.dataset, dcfg, rng);
  };

  // --- setup: build (or load) the instance the first cell needs ----------
  std::optional<AccuInstance> base;
  std::vector<double> setup_ms;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    base.reset();
    const Clock::time_point t0 = Clock::now();
    if (w.kind == Kind::kSynth) {
      base.emplace(accu::load_instance_auto(args.synth));
    } else {
      base.emplace(generate(0, args.seed));
    }
    setup_ms.push_back(ms_between(t0, Clock::now()));
  }
  const AccuInstance& instance = *base;
  const InstanceFactory reuse = [&instance](std::uint32_t, std::uint64_t) {
    return instance;  // copies keep the uid, so per-instance caches apply
  };
  const InstanceFactory& factory = w.generate_in_sweep ? generate : reuse;
  const std::vector<StrategyFactory> roster = roster_for(w);
  const ExperimentConfig config = sweep_config(w, args.seed);
  const std::uint64_t grid =
      static_cast<std::uint64_t>(w.samples) * w.runs;

  OutputCheck output = output_check(w, args);
  auto account = [&](const ExperimentResult& result, double seconds,
                     const char* what) {
    const std::size_t bad = failed_cells(result, w.runs);
    bool ok = output.check(
        report_text(result, config, "perfbench " + w.name), tally, what);
    if (bad != 0) {
      tally.fail(std::string(what) + ": " + std::to_string(bad) +
                 " cell(s) failed");
      ok = false;
    }
    tally.cells(grid, bad, ok);
    return static_cast<double>(grid - bad) / seconds;
  };

  // --- warm-up: one untimed sweep, checked like the others ----------------
  account(run_sweep(factory, roster, config).result, 1.0, "warm-up sweep");

  // --- timed phase: a traced run alternates untraced and traced sweeps ----
  std::vector<double> plain_cps, traced_cps;
  TraceState t;
  std::vector<StrategyFactory> traced_roster;
  if (args.trace) traced_roster = timed_roster(roster, t.policies, t.log);
  const InstanceFactory traced_factory = timed_factory(factory, t);
  const Clock::time_point start = Clock::now();
  for (std::uint32_t sweeps = 0;
       sweeps < 2 || ms_between(start, Clock::now()) < args.seconds * 1e3;
       ++sweeps) {
    if (args.trace && sweeps % 2 == 1) {
      const double before = t.sweep_ms;
      const ExperimentResult result =
          traced_sweep(traced_factory, traced_roster, config, t);
      traced_cps.push_back(
          account(result, (t.sweep_ms - before) * 1e-3, "traced sweep"));
    } else {
      const SweepRun run = run_sweep(factory, roster, config);
      plain_cps.push_back(account(run.result, run.seconds, "untraced sweep"));
    }
  }

  m.set("setup_s", median(setup_ms) * 1e-3, "s");
  m.set("cells_per_s", throughput(plain_cps), "1/s");
  log_series("sweep cells/s", plain_cps);
  if (!args.trace) return;

  // --- traced run: layers --------------------------------------------------
  replay_cell_layers(instance, roster, config, args.seed, m);
  emit_sweep_trace(t, m, tally);
  emit_checkpoint_io(t.io.counts(PathClass::kCheckpoint),
                     static_cast<double>(t.cell_ms.size()), m);
  if (w.kind == Kind::kSynth) {
    m.set("instance_format.load_ms", median(setup_ms), "ms");
    m.set("instance_format.bytes",
          static_cast<double>(fs::file_size(args.synth)), "B");
    // The out-of-core generator that made the file, replayed.
    const std::string copy = args.work + "/replay-synth.accui";
    m.set("datasets.generate_ms", time_ms([&] {
            (void)accu::datasets::generate_instance_stream(
                synth_config(w, args.seed), copy);
          }),
          "ms");
    fs::remove(copy);
  } else {
    m.set("datasets.generate_ms",
          w.generate_in_sweep
              ? t.factory_ms / static_cast<double>(t.factory_calls)
              : median(setup_ms),
          "ms");
    replay_binary_load(instance, args.work, m);
  }
  m.set("datasets.instances",
        w.generate_in_sweep ? static_cast<double>(t.factory_calls) /
                                  static_cast<double>(t.sweeps)
                            : 0.0,
        "count");
  {
    const std::string dir = args.work + "/report";
    fs::create_directories(dir);
    const SweepRun run = run_sweep(factory, roster, config);
    replay_report(run.result, config, dir, m);
  }
  m.set("trace.overhead_frac",
        1.0 - throughput(traced_cps) / throughput(plain_cps), "frac");
  write_trace_files(args.work, w.name, t);
}

// ---------------------------------------------------------------------------
// serve-facebook-tiny: one compare job per iteration through an in-process
// run_daemon with two forked workers.

struct ServeJob {
  double setup_ms = 0.0;
  double submit_ms = 0.0;
  double seconds = 0.0;  // submission to report.md written
  std::string report;
  int code = 0;
};

ServeJob run_serve_job(const AccuInstance& instance, const Workload& w,
                       std::uint64_t seed, const std::string& root) {
  std::error_code ec;
  fs::remove_all(root, ec);
  fs::create_directories(root + "/spool");
  const std::string net = root + "/net.accu";
  const accu::serve::JobSpec spec = serve_spec(w, net, seed);
  ServeJob job;
  const Clock::time_point t0 = Clock::now();
  accu::write_instance_file(instance, net);
  const Clock::time_point t1 = Clock::now();
  accu::serve::submit_job(root + "/spool", spec, "bench");
  const Clock::time_point t2 = Clock::now();
  accu::serve::ServeConfig config;
  config.root = root;
  config.workers = kServeWorkers;
  config.poll_ms = 5;
  config.exit_when_idle = true;
  job.code = accu::serve::run_daemon(config);
  const Clock::time_point t3 = Clock::now();
  job.setup_ms = ms_between(t0, t2);
  job.submit_ms = ms_between(t1, t2);
  job.seconds = ms_between(t1, t3) * 1e-3;
  job.report = read_file(root + "/jobs/" + kServeJobId + "/report.md");
  return job;
}

void run_serve_workload(const Workload& w, const Args& args, Metrics& m,
                        Tally& tally) {
  accu::util::Rng rng(args.seed);
  const AccuInstance instance =
      accu::datasets::make_dataset(w.dataset, dataset_config(w), rng);

  OutputCheck output = output_check(w, args);
  std::vector<double> setup_ms, plain_cps, plain_wall, traced_cps, submit_ms;
  CountingIoEnv daemon_io;
  const std::string plain_root = args.work + "/serve";
  const std::string traced_root = args.work + "/serve-traced";
  auto account = [&](const ServeJob& job) {
    bool ok = job.code == accu::util::exit_code::kOk;
    if (!ok) tally.fail("daemon exited " + std::to_string(job.code));
    ok = output.check(job.report, tally, "served job") && ok;
    tally.cells(w.runs, 0, ok);
  };
  // Warm-up: one untimed job, checked like the others.
  account(run_serve_job(instance, w, args.seed, plain_root));
  const Clock::time_point start = Clock::now();
  for (std::uint32_t jobs = 0;
       jobs < 2 || ms_between(start, Clock::now()) < args.seconds * 1e3;
       ++jobs) {
    const bool traced_turn = args.trace && jobs % 2 == 1;
    ServeJob job;
    if (traced_turn) {
      const accu::util::ScopedIoEnv env(daemon_io);
      job = run_serve_job(instance, w, args.seed, traced_root);
    } else {
      job = run_serve_job(instance, w, args.seed, plain_root);
    }
    account(job);
    const double cps = static_cast<double>(w.runs) / job.seconds;
    if (traced_turn) {
      traced_cps.push_back(cps);
      submit_ms.push_back(job.submit_ms);
    } else {
      plain_cps.push_back(cps);
      plain_wall.push_back(job.seconds);
      setup_ms.push_back(job.setup_ms);
    }
  }
  m.set("setup_s", median(setup_ms) * 1e-3, "s");
  m.set("cells_per_s", throughput(plain_cps), "1/s");
  log_series("job cells/s", plain_cps);

  // The byte-identity invariant: the sharded, served job merges to exactly
  // the report of the same sweep run directly in one process.  A mismatch
  // fails the direct run's cells.  The traced run times this direct run:
  // timed roster, progress hook and a grouped checkpoint, i.e. one shard's
  // worth of the job in this process.
  const std::string root = args.trace ? traced_root : plain_root;
  const std::string net = root + "/net.accu";
  const accu::serve::JobSpec spec = serve_spec(w, net, args.seed);
  const std::string served =
      read_file(root + "/jobs/" + kServeJobId + "/report.md");
  const std::vector<StrategyFactory> roster = accu::serve::compare_roster();
  ExperimentConfig config = accu::serve::shard_config(spec, 0, 1, "");
  const InstanceFactory factory = accu::serve::job_instance_factory(spec);
  TraceState t;
  ExperimentResult direct;
  if (args.trace) {
    config.checkpoint_path = root + "/direct.ckpt";
    config.durability = spec.durability_policy();
    direct = traced_sweep(timed_factory(factory, t),
                          timed_roster(roster, t.policies, t.log), config, t);
  } else {
    direct = run_sweep(factory, roster, config).result;
  }
  const bool same =
      report_text(direct, config, std::string("accu serve — ") +
                                      kServeJobId) == served;
  if (!same) tally.fail("served report differs from the direct run's report");
  tally.cells(w.runs, failed_cells(direct, w.runs), same);
  if (!args.trace) return;

  // --- traced run: layers --------------------------------------------------
  replay_cell_layers(instance, roster, config, args.seed, m);
  emit_sweep_trace(t, m, tally);
  replay_report(direct, config, root, m);

  // Replays of what runs inside the daemon and its forked workers.
  const std::string job_dir = root + "/jobs/" + kServeJobId;
  std::vector<std::string> shards;
  for (std::uint32_t s = 0; s < kServeWorkers; ++s) {
    shards.push_back(job_dir + "/shard" + std::to_string(s) + ".ckpt");
  }
  const double merge_ms = median_ms(5, [&] {
    (void)accu::merge_shard_checkpoints(shards, root + "/replay-merged.ckpt");
  });
  m.set("serve.merge_ms", merge_ms, "ms");

  // Each shard re-run in-process (the daemon forks these) under a counting
  // environment: busy time, checkpoint bytes and fsyncs, progress writes.
  CountingIoEnv shard_io;
  double slowest_s = 0.0;
  for (std::uint32_t s = 0; s < kServeWorkers; ++s) {
    const std::string dir = root + "/replay-shard";
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir);
    const Clock::time_point t0 = Clock::now();
    int code = 0;
    {
      const accu::util::ScopedIoEnv env(shard_io);
      code = accu::serve::run_job_shard(spec, dir, s, kServeWorkers, nullptr);
    }
    slowest_s = std::max(slowest_s, ms_between(t0, Clock::now()) * 1e-3);
    if (code != accu::util::exit_code::kOk) {
      tally.fail("replayed shard " + std::to_string(s) + " exited " +
                 std::to_string(code));
    }
  }
  m.set("serve.shard_busy_s", slowest_s, "s");
  emit_checkpoint_io(shard_io.counts(PathClass::kCheckpoint),
                     static_cast<double>(w.runs), m);
  m.set("serve.progress_writes",
        static_cast<double>(shard_io.counts(PathClass::kProgress).renames),
        "count");

  const double traced_jobs = static_cast<double>(traced_cps.size());
  const IoCounts journal = daemon_io.counts(PathClass::kJournal);
  m.set("serve.journal_appends",
        static_cast<double>(journal.writes) / traced_jobs, "count");
  m.set("serve.journal_fsyncs",
        static_cast<double>(journal.fsyncs) / traced_jobs, "count");
  m.set("serve.submit_ms", median(submit_ms), "ms");
  m.set("serve.overhead_s",
        median(plain_wall) - slowest_s -
            (merge_ms + m.get("report.write_ms")) * 1e-3,
        "s");

  m.set("instance_io.parse_ms",
        median_ms(20, [&] { (void)accu::load_instance_auto(net); }), "ms");
  m.set("instance_io.bytes", static_cast<double>(fs::file_size(net)), "B");
  replay_binary_load(instance, args.work, m);
  m.set("datasets.generate_ms", median_ms(5, [&] {
          accu::util::Rng r(args.seed);
          (void)accu::datasets::make_dataset(w.dataset, dataset_config(w), r);
        }),
        "ms");
  m.set("datasets.instances", 0.0, "count");
  m.set("trace.overhead_frac",
        1.0 - throughput(traced_cps) / throughput(plain_cps), "frac");
  write_trace_files(args.work, w.name, t);
  daemon_io.write_csv(args.work + "/io-" + w.name + "-daemon.csv");
}

// ---------------------------------------------------------------------------
// Output.

void print_result(const Tally& tally, const Metrics& m) {
  std::string out = "{\"correct\": ";
  out += tally.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : m.items) {
    char buf[64];
    double v = vu.first;
    if (!std::isfinite(v)) v = 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           vu.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int run_workload(const Args& args) {
  const std::optional<Workload> w = find_workload(args.workload, args.small);
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  if (w->kind == Kind::kSynth && args.synth.empty()) {
    std::fprintf(stderr, "perfbench: %s needs --synth FILE\n",
                 args.workload.c_str());
    return 2;
  }
  fs::create_directories(args.work);
  accu::simd::select(std::nullopt);
  std::printf("host: %s\n", host_stamp_json().c_str());
  Metrics m;
  Tally tally;
  if (w->kind == Kind::kServe) {
    run_serve_workload(*w, args, m, tally);
  } else {
    run_sweep_workload(*w, args, m, tally);
  }
  m.set("peak_rss_mb", peak_rss_mb(), "MiB");
  m.set("cells_failed_frac",
        static_cast<double>(tally.failed) /
            static_cast<double>(std::max<std::uint64_t>(tally.attempted, 1)),
        "frac");
  for (const std::string& p : tally.problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());
  }
  print_result(tally, m);
  return 0;
}

int gen_synth(const std::string& path, std::uint64_t seed, bool small) {
  const Workload w = *find_workload("load-synth-250k", small);
  (void)accu::datasets::generate_instance_stream(synth_config(w, seed), path);
  return 0;
}

// ---------------------------------------------------------------------------
// Self-test: the probes must not change what the library computes.

struct SelfTest {
  int failures = 0;
  void expect(bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok) ++failures;
  }
};

/// Counts that repeat exactly across two same-seed traced runs.  Timing-
/// dependent counts are left out on purpose: grouped commit's group_ms
/// flushes (checkpoint fsyncs), the daemon's poll ticks and the throttled
/// progress-file writes all depend on wall-clock.
struct DeterministicCounts {
  std::uint64_t cells = 0, selects = 0, revelations = 0, pack_adopts = 0;
  double faulted = 0.0;
  std::uint64_t checkpoint_bytes = 0;
  std::string report;

  bool operator==(const DeterministicCounts&) const = default;
};

DeterministicCounts traced_counts(const InstanceFactory& factory,
                                  const std::vector<StrategyFactory>& roster,
                                  ExperimentConfig config,
                                  const std::string& ckpt) {
  TraceState t;
  std::error_code ec;
  fs::remove(ckpt, ec);
  config.checkpoint_path = ckpt;
  config.durability.mode = accu::util::DurabilityPolicy::Mode::kGrouped;
  const ExperimentResult result = traced_sweep(
      factory, timed_roster(roster, t.policies, t.log), config, t);
  DeterministicCounts c;
  c.cells = t.cell_ms.size();
  for (const PolicyStats& p : t.policies) {
    c.selects += p.selects;
    c.revelations += p.revelations;
    c.pack_adopts += p.pack_adopts;
  }
  c.faulted = t.faulted;
  c.checkpoint_bytes = t.io.counts(PathClass::kCheckpoint).bytes;
  c.report = report_text(result, config, "selftest");
  return c;
}

int selftest(const Args& args) {
  SelfTest st;
  fs::create_directories(args.work);
  for (const char* name : kWorkloadNames) {
    const Workload w = *find_workload(name, /*small=*/true);
    const std::uint64_t seed = 7;
    std::optional<AccuInstance> instance;
    ExperimentConfig config = sweep_config(w, seed);
    const std::vector<StrategyFactory> roster = roster_for(w);
    if (w.kind == Kind::kSynth) {
      const std::string path = args.work + "/selftest-synth.accui";
      gen_synth(path, seed, true);
      instance.emplace(accu::load_instance_auto(path));
    } else {
      accu::util::Rng rng(seed);
      instance.emplace(
          accu::datasets::make_dataset(w.dataset, dataset_config(w), rng));
    }
    const AccuInstance& inst = *instance;
    InstanceFactory factory = [&inst](std::uint32_t, std::uint64_t) {
      return inst;
    };
    if (w.kind == Kind::kServe) {
      // The served job: daemon report == direct report == traced report.
      const std::string root = args.work + "/selftest-serve";
      const ServeJob job = run_serve_job(inst, w, seed, root);
      st.expect(job.code == accu::util::exit_code::kOk,
                std::string(name) + ": daemon exits cleanly");
      const accu::serve::JobSpec spec =
          serve_spec(w, root + "/net.accu", seed);
      config = accu::serve::shard_config(spec, 0, 1, "");
      factory = accu::serve::job_instance_factory(spec);
      const SweepRun direct = run_sweep(factory, roster, config);
      const std::string title = std::string("accu serve — ") + kServeJobId;
      st.expect(report_text(direct.result, config, title) == job.report,
                std::string(name) + ": served report equals direct report");
    }
    const std::string ckpt = args.work + "/selftest.ckpt";
    const DeterministicCounts a = traced_counts(factory, roster, config, ckpt);
    const DeterministicCounts b = traced_counts(factory, roster, config, ckpt);
    const SweepRun plain = run_sweep(factory, roster, config);
    st.expect(report_text(plain.result, config, "selftest") == a.report,
              std::string(name) + ": traced and untraced reports are "
                                  "byte-identical");
    st.expect(a == b, std::string(name) +
                          ": cells, selects, revelations, faulted requests "
                          "and checkpoint bytes repeat exactly");
    // One forwarded adopt_score_pack per ABM/Greedy simulation: the
    // decorator kept the pack offer, so the engine's pooled pack is used.
    std::uint64_t pack_policies = 0;
    for (const StrategyFactory& f : roster) {
      if (f.make()->wants_score_pack()) ++pack_policies;
    }
    st.expect(pack_policies > 0 && a.pack_adopts == pack_policies * a.cells,
              std::string(name) + ": one forwarded adopt_score_pack per "
                                  "pack-scoring policy per cell (" +
                  std::to_string(a.pack_adopts) + " for " +
                  std::to_string(a.cells) + " cells)");
    if (w.feedback != "full") {
      st.expect(a.revelations > 0,
                std::string(name) + ": deferred revelations are delivered");
    }
    if (w.fault_rate > 0.0) {
      st.expect(a.faulted > 0, std::string(name) + ": faults are injected");
    }
  }
  std::printf("selftest: %d failure(s); timing-dependent counts not "
              "compared: grouped-commit group_ms flushes, daemon poll ticks, "
              "progress-file throttling\n",
              st.failures);
  return st.failures == 0 ? 0 : 1;
}

bool parse_args(int argc, char** argv, Args& args, std::string& gen,
                bool& self) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + key);
      return argv[++i];
    };
    if (key == "--workload") {
      args.workload = value();
    } else if (key == "--seed") {
      args.seed = std::stoull(value());
    } else if (key == "--seconds") {
      args.seconds = std::stod(value());
    } else if (key == "--trace") {
      args.trace = value() == "1";
    } else if (key == "--work") {
      args.work = value();
    } else if (key == "--synth") {
      args.synth = value();
    } else if (key == "--small") {
      args.small = true;
    } else if (key == "--gen-synth") {
      gen = value();
    } else if (key == "--selftest") {
      self = true;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", key.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    perfbench::Args args;
    std::string gen;
    bool self = false;
    if (!perfbench::parse_args(argc, argv, args, gen, self)) return 2;
    if (self) return perfbench::selftest(args);
    if (!gen.empty()) return perfbench::gen_synth(gen, args.seed, args.small);
    return perfbench::run_workload(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
