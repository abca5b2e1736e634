// Engineering study: what the serve daemon costs on top of the raw sweep.
//
// Three measurements, each against the same compare-kind job:
//
//   * submission latency — the atomic spool write (temp + fsync + rename +
//     directory fsync) a client pays per `accu serve submit`;
//   * scheduler overhead per cell — wall-clock of a daemon-run job
//     (journal, forked workers, per-cell checkpoint fsyncs, merge, report)
//     versus the identical run_experiment call in-process;
//   * throughput scaling — daemon cells/second at 1, 2, and 4 workers,
//     per durability mode (strict fsync-per-cell vs grouped commit).
//
// The durability axis is the point: strict mode's per-cell fsync is the
// serve throughput ceiling — worker processes gain nothing because their
// fsyncs serialize on the same device write queue (workers_2 ≈ workers_1
// in BENCH_serve.json history).  Grouped commit amortizes that fsync over
// group-cells, which lifts single-worker throughput about 1.5× in the
// committed snapshot.  It does not restore worker scaling there: grouped
// runs 2,242, 2,340 and 2,202 cells/s at 1, 2 and 4 workers, so on this
// tiny-cell job more workers buy nothing in either mode.
//
// `--json=FILE` snapshots the numbers for BENCH_serve.json.

#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/instance_io.hpp"
#include "serve/daemon.hpp"
#include "serve/job.hpp"
#include "util/exit_codes.hpp"
#include "util/timer.hpp"

namespace {

using namespace accu;
namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string path =
      (fs::temp_directory_path() / name).string();
  std::error_code ec;
  fs::remove_all(path, ec);
  return path;
}

/// Runs one daemon session over a single submitted job; returns seconds.
double time_daemon_run(const std::string& root, const serve::JobSpec& spec,
                       std::uint32_t workers) {
  fs::create_directories(root + "/spool");
  serve::submit_job(root + "/spool", spec, "bench");
  serve::ServeConfig config;
  config.root = root;
  config.workers = workers;
  config.poll_ms = 5;
  config.exit_when_idle = true;
  const util::Timer timer;
  const int code = serve::run_daemon(config);
  const double seconds = timer.seconds();
  if (code != util::exit_code::kOk) {
    throw IoError("daemon run exited " + std::to_string(code));
  }
  return seconds;
}

int run(int argc, char** argv) {
  util::Options opts(argc, argv);
  opts.declare("scale", "facebook dataset scale (default 0.03)")
      .declare("k", "request budget per attack (default 8)")
      .declare("runs", "repetitions = grid cells (default 96)")
      .declare("seed", "master seed")
      .declare("submits", "spool writes for the latency probe (default 64)")
      .declare("durability",
               "daemon axis: strict | grouped | both (default both)")
      .declare("group-cells", "grouped mode: fsync every N cells (default 64)")
      .declare("group-ms", "grouped mode: fsync at least every T ms "
                           "(default 100)")
      .declare("json", "write a JSON snapshot to this path");
  opts.check_unknown();
  const double scale = opts.get_double("scale", 0.03);
  const auto budget = static_cast<std::uint32_t>(opts.get_int("k", 8));
  const auto runs = static_cast<std::uint32_t>(opts.get_int("runs", 96));
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  const auto submits =
      static_cast<std::uint32_t>(opts.get_int("submits", 64));

  // One fixed instance shared by every probe.
  const std::string net_path = fresh_dir("accu_study_serve_net");
  {
    util::Rng rng(seed);
    datasets::DatasetConfig config;
    config.scale = scale;
    config.num_cautious = 10;
    write_instance_file(datasets::make_dataset("facebook", config, rng),
                        net_path);
  }
  serve::JobSpec spec;
  spec.kind = "compare";
  spec.instance = net_path;
  spec.budget = budget;
  spec.runs = runs;
  spec.seed = seed;
  spec.threads = 1;

  // --- submission latency --------------------------------------------------
  const std::string spool = fresh_dir("accu_study_serve_spool");
  fs::create_directories(spool);
  double submit_total_ms = 0.0, submit_max_ms = 0.0;
  for (std::uint32_t i = 0; i < submits; ++i) {
    char name[32];
    std::snprintf(name, sizeof name, "probe%04u", i);
    const util::Timer timer;
    serve::submit_job(spool, spec, name);
    const double ms = timer.milliseconds();
    submit_total_ms += ms;
    if (ms > submit_max_ms) submit_max_ms = ms;
  }
  const double submit_mean_ms = submit_total_ms / submits;

  // --- direct baseline -----------------------------------------------------
  const util::Timer direct_timer;
  const ExperimentResult direct = run_experiment(
      serve::job_instance_factory(spec), serve::compare_roster(),
      serve::shard_config(spec, 0, 1, ""));
  const double direct_s = direct_timer.seconds();
  if (!direct.failures.empty()) throw IoError("baseline sweep failed");
  const double cells = static_cast<double>(runs);

  // --- daemon runs: durability × workers -----------------------------------
  const std::string axis = opts.get("durability", "both");
  std::vector<std::string> modes;
  if (axis == "both") {
    modes = {"strict", "grouped"};
  } else {
    (void)util::DurabilityPolicy::parse_mode(axis);  // reject typos early
    modes = {axis};
  }
  const std::vector<std::uint32_t> worker_counts = {1, 2, 4};
  // seconds[mode][i] for worker_counts[i]
  std::vector<std::vector<double>> seconds;
  for (const std::string& mode : modes) {
    serve::JobSpec mode_spec = spec;
    mode_spec.durability = mode;
    mode_spec.group_cells =
        static_cast<std::uint32_t>(opts.get_int("group-cells", 64));
    mode_spec.group_ms =
        static_cast<std::uint32_t>(opts.get_int("group-ms", 100));
    std::vector<double> per_workers;
    for (const std::uint32_t workers : worker_counts) {
      char dir[64];
      std::snprintf(dir, sizeof dir, "accu_study_serve_%s_w%u",
                    mode.c_str(), workers);
      per_workers.push_back(time_daemon_run(fresh_dir(dir), mode_spec,
                                            workers));
    }
    seconds.push_back(std::move(per_workers));
  }
  const double overhead_ms_per_cell =
      (seconds[0][0] - direct_s) * 1000.0 / cells;

  util::Table table({"probe", "value"});
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", submit_mean_ms);
  table.row().cell("submit mean ms").cell(buf);
  std::snprintf(buf, sizeof buf, "%.3f", submit_max_ms);
  table.row().cell("submit max ms").cell(buf);
  std::snprintf(buf, sizeof buf, "%.1f", cells / direct_s);
  table.row().cell("direct cells/s").cell(buf);
  std::snprintf(buf, sizeof buf, "%.3f", overhead_ms_per_cell);
  table.row().cell("serve overhead ms/cell (" + modes[0] + ", 1 worker)")
      .cell(buf);
  for (std::size_t m = 0; m < modes.size(); ++m) {
    for (std::size_t i = 0; i < worker_counts.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.1f", cells / seconds[m][i]);
      char label[56];
      std::snprintf(label, sizeof label, "serve cells/s (%s) @ %u worker(s)",
                    modes[m].c_str(), worker_counts[i]);
      table.row().cell(label).cell(buf);
    }
  }
  if (modes.size() == 2) {
    std::snprintf(buf, sizeof buf, "%.2fx",
                  seconds[0][0] / seconds[1][0]);
    table.row().cell("grouped speedup @ 1 worker").cell(buf);
  }
  bench::emit(table,
              "Study — serve daemon overhead (facebook scale " +
                  std::to_string(scale) + ", " + std::to_string(runs) +
                  " cells)",
              "");

  if (opts.has("json")) {
    std::ofstream os(opts.get("json", ""));
    if (!os) throw IoError("cannot open --json file");
    char head[512];
    std::snprintf(
        head, sizeof head,
        "{\n"
        "  \"workload\": \"facebook-%.3g compare roster, k=%u, %u cells\",\n"
        "  \"submit_latency_mean_ms\": %.3f,\n"
        "  \"submit_latency_max_ms\": %.3f,\n"
        "  \"direct_cells_per_sec\": %.1f,\n"
        "  \"serve_overhead_ms_per_cell\": %.3f,\n"
        "  \"serve_cells_per_sec\": {\n",
        scale, budget, runs, submit_mean_ms, submit_max_ms,
        cells / direct_s, overhead_ms_per_cell);
    os << head;
    for (std::size_t m = 0; m < modes.size(); ++m) {
      char block[256];
      std::snprintf(block, sizeof block,
                    "    \"%s\": {\n"
                    "      \"workers_1\": %.1f,\n"
                    "      \"workers_2\": %.1f,\n"
                    "      \"workers_4\": %.1f\n"
                    "    }%s\n",
                    modes[m].c_str(), cells / seconds[m][0],
                    cells / seconds[m][1], cells / seconds[m][2],
                    m + 1 < modes.size() ? "," : "");
      os << block;
    }
    os << "  }";
    if (modes.size() == 2) {
      char speedup[128];
      std::snprintf(speedup, sizeof speedup,
                    ",\n  \"grouped_speedup_workers_1\": %.2f",
                    seconds[0][0] / seconds[1][0]);
      os << speedup;
    }
    os << "\n}\n";
    std::printf("JSON snapshot written to %s\n",
                opts.get("json", "").c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "study_serve: %s\n", e.what());
    return 1;
  }
}
