#include "serve/daemon.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "core/report.hpp"
#include "serve/job.hpp"
#include "serve/journal.hpp"
#include "util/atomic_file.hpp"
#include "util/backoff.hpp"
#include "util/error.hpp"
#include "util/exit_codes.hpp"
#include "util/lockfile.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define ACCU_SERVE_POSIX 1
#include <csignal>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif
#if defined(__linux__)
#include <sys/prctl.h>
#endif

namespace accu::serve {

namespace fs = std::filesystem;
namespace exit_code = util::exit_code;

namespace {

// Written by the forked worker's SIGTERM/SIGINT handler and read by the
// sweep's workers and cell cancel tokens: the worker stops at cell
// granularity with its checkpoint flushed and exits kInterrupted.
volatile std::sig_atomic_t g_worker_stop = 0;

void worker_signal_handler(int) { g_worker_stop = 1; }

std::string to_string_u(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  return buf;
}

std::string to_string_i(long long v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%lld", v);
  return buf;
}

/// Parses "job<seq>" back into its sequence number; 0 if not that shape.
std::uint32_t job_id_seq(const std::string& id) {
  if (id.rfind("job", 0) != 0) return 0;
  const long seq = std::strtol(id.c_str() + 3, nullptr, 10);
  return seq > 0 ? static_cast<std::uint32_t>(seq) : 0;
}

std::string make_job_id(std::uint32_t seq) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "job%04u", seq);
  return buf;
}

std::size_t job_grid_cells(const JobSpec& spec) {
  const std::size_t samples = spec.kind == "sweep" ? spec.samples : 1;
  const std::size_t runs = spec.kind == "simulate" ? 1 : spec.runs;
  return samples * runs;
}

#ifdef ACCU_SERVE_POSIX

bool pid_alive(long pid) {
  if (pid <= 0) return false;
  return ::kill(static_cast<pid_t>(pid), 0) == 0 || errno == EPERM;
}

/// Linux: is the pid (still) an accu process?  Guards orphan recovery
/// against pid reuse — never SIGKILL a stranger that inherited the number.
bool pid_is_accu(long pid) {
#if defined(__linux__)
  char path[64];
  std::snprintf(path, sizeof path, "/proc/%ld/cmdline", pid);
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return false;
  std::string argv0;
  std::getline(in, argv0, '\0');
  return argv0.find("accu") != std::string::npos;
#else
  return pid_alive(pid);
#endif
}

/// Kills a journaled worker pid that survived a daemon crash and waits for
/// it to disappear, so the rescheduled shard never shares its checkpoint
/// file with a live appender.  (On Linux PR_SET_PDEATHSIG already reaped
/// these with the daemon; this is the portable belt to that suspender.)
void reclaim_orphan(long pid) {
  if (!pid_alive(pid) || !pid_is_accu(pid)) return;
  util::log_warn("serve: killing orphaned worker pid %ld from a previous "
                 "daemon",
                 pid);
  (void)::kill(static_cast<pid_t>(pid), SIGKILL);
  for (int i = 0; i < 500 && pid_alive(pid); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

struct ShardRuntime {
  enum class Phase : std::uint8_t { kPending, kRunning, kDone };
  Phase phase = Phase::kPending;
  long pid = 0;
  std::uint64_t ready_tick = 0;  ///< crash backoff: no restart before this
};

struct JobRuntime {
  std::string id;
  JobSpec spec;
  std::string dir;
  std::uint32_t shards = 1;
  std::vector<ShardRuntime> shard;
  std::uint32_t crashes = 0;
  bool started = false;   ///< consumed a start token; deadline clock runs
  bool failing = false;   ///< deadline blown: terminating workers
  std::chrono::steady_clock::time_point started_at{};
  enum class State : std::uint8_t {
    kActive,
    kDone,
    kFailed,
    kQuarantined,
  } state = State::kActive;

  [[nodiscard]] bool all_shards_done() const {
    return std::all_of(shard.begin(), shard.end(), [](const ShardRuntime& s) {
      return s.phase == ShardRuntime::Phase::kDone;
    });
  }
  [[nodiscard]] bool any_shard_running() const {
    return std::any_of(shard.begin(), shard.end(), [](const ShardRuntime& s) {
      return s.phase == ShardRuntime::Phase::kRunning;
    });
  }
};

pid_t spawn_worker(const JobRuntime& job, std::uint32_t shard,
                   int pidfile_fd, int journal_fd) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;  // parent (or fork failure, -1)
  // Drop the inherited pidfile and journal descriptors immediately: flock
  // lives on the open file description, so a worker that kept the pidfile
  // fd would hold the daemon's lock past the daemon's death and make a
  // prompt restart see "already running" until PDEATHSIG catches up.
  if (pidfile_fd >= 0) (void)::close(pidfile_fd);
  if (journal_fd >= 0) (void)::close(journal_fd);
#if defined(__linux__)
  // Die with the daemon: a SIGKILLed daemon must never leave a worker
  // appending to a checkpoint behind its successor's back.
  (void)::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
  g_worker_stop = 0;
  std::signal(SIGTERM, worker_signal_handler);
  std::signal(SIGINT, worker_signal_handler);
  int code = exit_code::kFailure;
  try {
    code = run_job_shard(job.spec, job.dir, shard, job.shards,
                         &g_worker_stop);
  } catch (...) {
    // run_job_shard catches std::exception itself; this guards the rest.
  }
  // _exit, not exit: the child still shares stdio (and any future fds)
  // with the daemon and must not flush or close them on the way out.
  ::_exit(code);
}

/// Everything the scheduler loop touches, so helpers stay short.
struct Daemon {
  ServeConfig config;
  std::string root;
  JobJournal journal;
  std::map<std::string, JobRuntime> jobs;  ///< non-terminal (this session)
  std::set<std::string> journaled;  ///< every id the journal knows, terminal too
  int pidfile_fd = -1;  ///< for fork hygiene in spawn_worker
  std::map<long, std::pair<std::string, std::uint32_t>> running;  // pid → …
  std::uint32_t next_seq = 1;
  std::uint64_t tick = 0;
  bool draining = false;
  std::size_t quarantined_jobs = 0;
  TokenBucket bucket{0.0, 0.0};
  util::RetryPolicy crash_backoff =
      util::RetryPolicy::exponential_jitter(0x0fffffff, 2, 200);
  util::Rng backoff_rng{0x5eedba5eULL};
  std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();

  [[nodiscard]] double now_s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch)
        .count();
  }
  [[nodiscard]] std::size_t active_jobs() const {
    std::size_t n = 0;
    for (const auto& [id, job] : jobs) {
      if (job.state == JobRuntime::State::kActive) ++n;
    }
    return n;
  }

  void note_seq(const std::string& id) {
    next_seq = std::max(next_seq, job_id_seq(id) + 1);
  }

  JobRuntime* find(const std::string& id) {
    auto it = jobs.find(id);
    return it == jobs.end() ? nullptr : &it->second;
  }

  void quarantine(JobRuntime& job) {
    journal.append("quarantine", {job.id});
    job.state = JobRuntime::State::kQuarantined;
    ++quarantined_jobs;
    util::log_error("serve: job %s quarantined after %u worker crash(es)",
                    job.id.c_str(), job.crashes);
    for (ShardRuntime& sh : job.shard) {
      if (sh.pid > 0) (void)::kill(static_cast<pid_t>(sh.pid), SIGTERM);
    }
  }

  void recover(const ReplayState& replay);
  void adopt_unjournaled();
  void reap();
  void check_deadlines();
  void scan_spool();
  void complete_jobs();
  void start_shards();
  [[nodiscard]] bool idle() const;
  int run();
};

void Daemon::recover(const ReplayState& replay) {
  for (const auto& [id, rj] : replay.jobs) {
    note_seq(id);
    journaled.insert(id);
    if (rj.state == ReplayedJob::State::kDone ||
        rj.state == ReplayedJob::State::kFailed ||
        rj.state == ReplayedJob::State::kQuarantined) {
      continue;  // terminal: journal is the record, nothing to resume
    }
    JobRuntime job;
    job.id = id;
    job.dir = root + "/jobs/" + id;
    try {
      job.spec = load_job_file(job.dir + "/job.desc");
    } catch (const std::exception& e) {
      util::log_error("serve: job %s lost its descriptor (%s)", id.c_str(),
                      e.what());
      journal.append("fail", {id, "descriptor"});
      continue;
    }
    job.shards = rj.shards;
    job.shard.assign(rj.shards, ShardRuntime{});
    job.crashes = rj.crashes;
    job.started = rj.state == ReplayedJob::State::kRunning;
    job.started_at = std::chrono::steady_clock::now();
    for (std::uint32_t s = 0; s < rj.shards; ++s) {
      if (rj.shard_done[s]) {
        job.shard[s].phase = ShardRuntime::Phase::kDone;
      } else if (rj.shard_pid[s] != 0) {
        // A worker we forked in a previous life; its shard checkpoint
        // already holds whatever it finished, so kill-and-rerun is cheap.
        reclaim_orphan(rj.shard_pid[s]);
      }
    }
    if (job.started) {
      util::log_info("serve: resuming job %s (%u shard(s))", id.c_str(),
                     job.shards);
    }
    jobs.emplace(id, std::move(job));
  }
}

void Daemon::adopt_unjournaled() {
  // A crash between "rename descriptor into jobs/<id>/" and "journal the
  // submit" leaves a job directory the journal has never heard of.  Adopt
  // it: re-journal the submit with the current shard count.  (The reverse
  // order would lose the job entirely — the spool file is already gone.)
  std::error_code ec;
  std::vector<std::string> ids;
  for (const auto& entry : fs::directory_iterator(root + "/jobs", ec)) {
    if (!entry.is_directory()) continue;
    const std::string id = entry.path().filename().string();
    if (jobs.count(id) != 0 || journaled.count(id) != 0) continue;
    if (fs::exists(entry.path() / "job.desc")) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  for (const std::string& id : ids) {
    JobRuntime job;
    job.id = id;
    job.dir = root + "/jobs/" + id;
    try {
      job.spec = load_job_file(job.dir + "/job.desc");
    } catch (const std::exception&) {
      continue;  // never journaled, never admitted: leave it for forensics
    }
    // Only adopt directories that are plausibly ours *and* absent from the
    // journal because of the submit race — i.e. carry our id shape.
    if (job_id_seq(id) == 0) continue;
    note_seq(id);
    job.shards = std::max(1u, config.workers);
    job.shard.assign(job.shards, ShardRuntime{});
    journal.append("submit", {id, to_string_u(job.shards)});
    journaled.insert(id);
    util::log_warn("serve: adopted unjournaled job directory %s",
                   id.c_str());
    jobs.emplace(id, std::move(job));
  }
}

void Daemon::reap() {
  int status = 0;
  pid_t pid = 0;
  while ((pid = ::waitpid(-1, &status, WNOHANG)) > 0) {
    auto it = running.find(pid);
    if (it == running.end()) continue;
    const std::string job_id = it->second.first;
    const std::uint32_t shard = it->second.second;
    running.erase(it);
    JobRuntime* job = find(job_id);
    if (job == nullptr) continue;
    ShardRuntime& sh = job->shard[shard];
    sh.pid = 0;
    const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                       : 128 + WTERMSIG(status);
    if (job->state != JobRuntime::State::kActive) {
      sh.phase = ShardRuntime::Phase::kPending;
      continue;  // quarantined/failed while this worker was exiting
    }
    if (code == exit_code::kOk) {
      journal.append("shard-done", {job_id, to_string_u(shard), "0"});
      sh.phase = ShardRuntime::Phase::kDone;
    } else if (code == exit_code::kInterrupted || job->failing) {
      // Paused (drain or deadline termination), not a crash: the shard
      // checkpoint is flushed and the cells it holds will be reused.
      sh.phase = ShardRuntime::Phase::kPending;
    } else {
      if (code == exit_code::kDiskFull) {
        util::log_error(
            "serve: job %s shard %u fail-stopped on ENOSPC; its checkpoint "
            "is a valid prefix — the retry resumes it once space is freed",
            job_id.c_str(), shard);
      } else if (code == exit_code::kSyncLost) {
        util::log_error(
            "serve: job %s shard %u fail-stopped on a failed fsync "
            "(dirty pages may be lost); cells synced before the failure "
            "are safe in its checkpoint and the retry resumes from there",
            job_id.c_str(), shard);
      }
      journal.append("crash", {job_id, to_string_u(shard), to_string_i(code)});
      ++job->crashes;
      sh.phase = ShardRuntime::Phase::kPending;
      if (job->crashes > config.admission.crash_budget) {
        quarantine(*job);
      } else {
        const std::uint32_t delay =
            crash_backoff.delay(job->crashes, backoff_rng);
        sh.ready_tick = tick + delay;
        util::log_warn("serve: job %s shard %u crashed (exit %d); retry %u "
                       "of %u in %u tick(s)",
                       job_id.c_str(), shard, code, job->crashes,
                       config.admission.crash_budget, delay);
      }
    }
  }
}

void Daemon::check_deadlines() {
  for (auto& [id, job] : jobs) {
    if (job.state != JobRuntime::State::kActive) continue;
    if (job.spec.deadline_ms == 0 || !job.started) continue;
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - job.started_at)
            .count();
    if (!job.failing && elapsed_ms > static_cast<double>(job.spec.deadline_ms)) {
      job.failing = true;
      util::log_warn("serve: job %s blew its %llums deadline; terminating",
                     id.c_str(),
                     static_cast<unsigned long long>(job.spec.deadline_ms));
      for (ShardRuntime& sh : job.shard) {
        if (sh.pid > 0) (void)::kill(static_cast<pid_t>(sh.pid), SIGTERM);
      }
    }
    if (job.failing && !job.any_shard_running()) {
      journal.append("fail", {id, "deadline"});
      job.state = JobRuntime::State::kFailed;
    }
  }
}

void Daemon::scan_spool() {
  const std::string spool = root + "/spool";
  std::error_code ec;
  std::vector<fs::path> incoming;
  for (const auto& entry : fs::directory_iterator(spool, ec)) {
    if (entry.path().extension() == ".job") incoming.push_back(entry.path());
  }
  std::sort(incoming.begin(), incoming.end());
  for (const fs::path& path : incoming) {
    if (admit(active_jobs(), config.admission) == Admission::kQueueFull) {
      util::log_warn("serve: queue full (%zu jobs); rejecting %s",
                     active_jobs(), path.filename().string().c_str());
      fs::rename(path, fs::path(path.string() + ".rejected"), ec);
      continue;
    }
    JobRuntime job;
    try {
      job.spec = load_job_file(path.string());
    } catch (const std::exception& e) {
      util::log_warn("serve: rejecting %s: %s",
                     path.filename().string().c_str(), e.what());
      fs::rename(path, fs::path(path.string() + ".bad"), ec);
      continue;
    }
    job.id = make_job_id(next_seq++);
    job.dir = root + "/jobs/" + job.id;
    job.shards = std::max(1u, config.workers);
    job.shard.assign(job.shards, ShardRuntime{});
    fs::create_directories(job.dir);
    // Descriptor into place first, then the journal record: if we crash
    // between the two, startup adoption re-journals the directory.  The
    // other order would admit a job whose descriptor vanished.
    fs::rename(path, fs::path(job.dir + "/job.desc"));
    // Both renames must be durable before the journal admits the job: a
    // hard dir-fsync error here would let a crash resurrect the spool file
    // *and* lose the job directory the journal references.  Fail-stop
    // (propagates to run_daemon → kSyncLost) instead of shrugging.
    util::checked_fsync_dir(job.dir);
    util::checked_fsync_dir(spool);
    journal.append("submit", {job.id, to_string_u(job.shards)});
    journaled.insert(job.id);
    util::log_info("serve: admitted %s as %s (%zu grid cell(s), %u shard(s))",
                   path.filename().string().c_str(), job.id.c_str(),
                   job_grid_cells(job.spec), job.shards);
    jobs.emplace(job.id, std::move(job));
  }
}

void Daemon::complete_jobs() {
  for (auto& [id, job] : jobs) {
    if (job.state != JobRuntime::State::kActive || job.failing) continue;
    if (job.shard.empty() || !job.all_shards_done()) continue;
    try {
      std::vector<std::string> paths;
      for (std::uint32_t s = 0; s < job.shards; ++s) {
        char name[32];
        std::snprintf(name, sizeof name, "/shard%u.ckpt", s);
        const std::string ckpt = job.dir + name;
        if (fs::exists(ckpt)) paths.push_back(ckpt);
      }
      const ShardMergeOutcome merged =
          merge_shard_checkpoints(paths, job.dir + "/merged.ckpt");
      if (merged.cells_missing > 0) {
        // Shards all claimed success yet cells are absent — a corrupted
        // checkpoint tail between worker exit and merge.  Not silently
        // acceptable for a daemon whose contract is bit-identical results.
        util::log_error("serve: job %s merge is missing %zu cell(s)",
                        id.c_str(), merged.cells_missing);
        journal.append("fail", {id, "missing-cells"});
        job.state = JobRuntime::State::kFailed;
        continue;
      }
      ReportOptions report_options;
      report_options.title = "accu serve — " + id;
      std::ostringstream report;
      write_markdown_report(merged.result, merged.config, report,
                            report_options);
      // Atomic + durable: the report a status query can see is always
      // whole, and a crash right after "done" is journaled cannot lose it.
      util::write_file_atomic(job.dir + "/report.md", report.str());
      journal.append("done", {id, "0"});
      job.state = JobRuntime::State::kDone;
      util::log_info("serve: job %s done (%zu cells merged)", id.c_str(),
                     merged.cells_merged);
    } catch (const std::exception& e) {
      util::log_error("serve: job %s merge failed: %s", id.c_str(),
                      e.what());
      journal.append("fail", {id, "merge"});
      job.state = JobRuntime::State::kFailed;
    }
  }
}

void Daemon::start_shards() {
  for (auto& [id, job] : jobs) {
    if (job.state != JobRuntime::State::kActive || job.failing) continue;
    for (std::uint32_t s = 0; s < job.shards; ++s) {
      if (running.size() >= config.workers) return;
      ShardRuntime& sh = job.shard[s];
      if (sh.phase != ShardRuntime::Phase::kPending) continue;
      if (tick < sh.ready_tick) continue;
      if (!job.started) {
        // Token bucket gates *job* starts (the fork fan-out of an admitted
        // job is bounded by `workers` already).  No token: try next tick.
        if (!bucket.try_take(now_s())) return;
        job.started = true;
        job.started_at = std::chrono::steady_clock::now();
      }
      const pid_t pid = spawn_worker(job, s, pidfile_fd, journal.fd());
      if (pid < 0) {
        util::log_error("serve: fork failed: %s", std::strerror(errno));
        return;  // transient (EAGAIN); retry next tick
      }
      journal.append("start",
                     {id, to_string_u(s), to_string_i(static_cast<long long>(pid))});
      sh.phase = ShardRuntime::Phase::kRunning;
      sh.pid = pid;
      running.emplace(static_cast<long>(pid), std::make_pair(id, s));
    }
  }
}

bool Daemon::idle() const {
  if (!running.empty()) return false;
  for (const auto& [id, job] : jobs) {
    if (job.state == JobRuntime::State::kActive) return false;
  }
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(root + "/spool", ec)) {
    if (entry.path().extension() == ".job") return false;
  }
  return true;
}

int Daemon::run() {
  root = config.root;
  fs::create_directories(root + "/spool");
  fs::create_directories(root + "/jobs");

  util::PidFile pidfile;
  if (!pidfile.try_acquire(root + "/serve.pid")) {
    util::log_error("serve: another daemon holds %s (pid %ld)",
                    (root + "/serve.pid").c_str(),
                    util::PidFile::read_pid(root + "/serve.pid"));
    return exit_code::kAlreadyRunning;
  }
  pidfile_fd = pidfile.fd();

  bucket = TokenBucket(config.admission.start_rate,
                       config.admission.start_burst);
  const JournalLoad loaded = journal.open(root + "/journal");
  recover(replay_journal(loaded.records));
  adopt_unjournaled();

  util::log_info("serve: daemon up at %s (%u worker(s), %zu job(s) to "
                 "resume)",
                 root.c_str(), config.workers, active_jobs());

  for (;; ++tick) {
    reap();

    const bool stop_requested =
        (config.stop_flag != nullptr && *config.stop_flag != 0) ||
        fs::exists(root + "/STOP");
    if (stop_requested && !draining) {
      draining = true;
      util::log_info("serve: drain requested; stopping %zu worker(s) at "
                     "cell granularity",
                     running.size());
      for (const auto& [pid, where] : running) {
        (void)::kill(static_cast<pid_t>(pid), SIGTERM);
      }
    }

    if (draining) {
      if (running.empty()) {
        journal.append("drain");
        std::error_code ec;
        fs::remove(root + "/STOP", ec);
        util::log_info("serve: drained; %zu job(s) remain resumable",
                       active_jobs());
        return exit_code::kOk;
      }
    } else {
      check_deadlines();
      scan_spool();
      complete_jobs();
      start_shards();
      if (config.exit_when_idle && idle()) {
        util::log_info("serve: queue idle; exiting");
        return quarantined_jobs > 0 ? exit_code::kQuarantined
                                    : exit_code::kOk;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(config.poll_ms));
  }
}

#endif  // ACCU_SERVE_POSIX

}  // namespace

int run_daemon(const ServeConfig& config) {
#ifdef ACCU_SERVE_POSIX
  try {
    Daemon daemon;
    daemon.config = config;
    return daemon.run();
  } catch (const DiskFullError& e) {
    util::log_error(
        "serve: disk full — %s; the journal and shard checkpoints are "
        "valid prefixes, restart the daemon once space is freed to resume",
        e.what());
    return exit_code::kDiskFull;
  } catch (const SyncFailedError& e) {
    util::log_error(
        "serve: fsync failed — %s; state synced before the failure is "
        "safe, restart the daemon once the device recovers to resume",
        e.what());
    return exit_code::kSyncLost;
  } catch (const std::exception& e) {
    util::log_error("serve: %s", e.what());
    return exit_code::kFailure;
  }
#else
  (void)config;
  util::log_error("serve: daemon mode needs a POSIX platform");
  return exit_code::kFailure;
#endif
}

std::vector<JobStatus> read_status(const std::string& root) {
  const JournalLoad loaded = read_journal(root + "/journal");
  const ReplayState replay = replay_journal(loaded.records);
  std::vector<JobStatus> out;
  for (const auto& [id, rj] : replay.jobs) {
    JobStatus status;
    status.id = id;
    status.state = replayed_state_name(rj.state);
    status.crashes = rj.crashes;
    if (!rj.fail_reason.empty()) status.detail = rj.fail_reason;
    const std::string dir = root + "/jobs/" + id;
    double ema_sum = 0.0;
    std::uint32_t ema_count = 0;
    for (std::uint32_t s = 0; s < rj.shards; ++s) {
      ShardProgress progress;
      if (!read_shard_progress(dir, s, progress)) continue;
      status.cells_done += progress.done;
      status.cells_total += progress.total;
      if (progress.ema_cell_ms > 0.0) {
        ema_sum += progress.ema_cell_ms;
        ++ema_count;
      }
    }
    if (status.cells_total == 0) {
      try {
        status.cells_total = job_grid_cells(load_job_file(dir + "/job.desc"));
      } catch (const std::exception&) {
        // Descriptor unreadable: totals stay unknown, state still shows.
      }
    }
    if (ema_count > 0) status.ema_cell_ms = ema_sum / ema_count;
    if (rj.state == ReplayedJob::State::kQueued ||
        rj.state == ReplayedJob::State::kRunning) {
      if (status.ema_cell_ms > 0.0 && status.cells_total > status.cells_done) {
        const double remaining =
            static_cast<double>(status.cells_total - status.cells_done);
        // Serial per-cell estimate spread over the job's shards.
        status.eta_s = remaining * status.ema_cell_ms / 1000.0 /
                       std::max(1u, rj.shards);
      }
    }
    out.push_back(std::move(status));
  }
  return out;
}

void request_stop(const std::string& root) {
  util::write_file_atomic(root + "/STOP", "stop\n");
}

}  // namespace accu::serve
