#include "probes.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "core/score_simd.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using accu::NodeId;

const char* span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kReset: return "reset";
    case SpanKind::kSelect: return "select";
    case SpanKind::kObserve: return "observe";
    case SpanKind::kRevelation: return "observe_revelation";
    case SpanKind::kPack: return "score_pack";
    case SpanKind::kFactory: return "instance_factory";
    case SpanKind::kProgress: return "progress";
  }
  return "?";
}

void SpanLog::add(SpanKind kind, std::uint8_t policy, Clock::time_point start,
                  Clock::time_point end) {
  Span span;
  span.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(start - origin_)
          .count();
  span.end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - origin_)
          .count();
  span.cell = cell_;
  span.policy = policy;
  span.kind = kind;
  spans_.push_back(span);
}

void SpanLog::write_csv(const std::string& path,
                        const std::vector<std::string>& policy_names) const {
  std::ofstream os(path);
  os << "name,policy,cell,start_ns,end_ns\n";
  for (const Span& s : spans_) {
    os << span_kind_name(s.kind) << ','
       << (s.policy < policy_names.size() ? policy_names[s.policy] : "-")
       << ',' << s.cell << ',' << s.start_ns << ',' << s.end_ns << '\n';
  }
}

void TimedStrategy::reset(const accu::AccuInstance& instance,
                          accu::util::Rng& rng) {
  const Clock::time_point t0 = Clock::now();
  inner_->reset(instance, rng);
  const Clock::time_point t1 = Clock::now();
  stats_.reset_ms += ms_between(t0, t1);
  ++stats_.resets;
  log_.add(SpanKind::kReset, policy_, t0, t1);
}

NodeId TimedStrategy::select(const accu::AttackerView& view,
                             accu::util::Rng& rng) {
  const Clock::time_point t0 = Clock::now();
  const NodeId target = inner_->select(view, rng);
  const Clock::time_point t1 = Clock::now();
  stats_.select_ms += ms_between(t0, t1);
  ++stats_.selects;
  log_.add(SpanKind::kSelect, policy_, t0, t1);
  return target;
}

void TimedStrategy::observe(
    NodeId target, bool accepted, const accu::AttackerView& view,
    const accu::AttackerView::AcceptanceEffects* effects) {
  const Clock::time_point t0 = Clock::now();
  inner_->observe(target, accepted, view, effects);
  const Clock::time_point t1 = Clock::now();
  stats_.observe_ms += ms_between(t0, t1);
  ++stats_.observes;
  log_.add(SpanKind::kObserve, policy_, t0, t1);
}

void TimedStrategy::observe_revelation(
    NodeId source, const accu::AttackerView& view,
    const accu::AttackerView::AcceptanceEffects& effects) {
  const Clock::time_point t0 = Clock::now();
  inner_->observe_revelation(source, view, effects);
  const Clock::time_point t1 = Clock::now();
  stats_.revelation_ms += ms_between(t0, t1);
  ++stats_.revelations;
  log_.add(SpanKind::kRevelation, policy_, t0, t1);
}

bool TimedStrategy::wants_score_pack() const {
  const bool wants = inner_->wants_score_pack();
  if (wants) pack_asked_ = Clock::now();
  return wants;
}

void TimedStrategy::adopt_score_pack(const accu::ScorePack& pack) {
  const Clock::time_point t1 = Clock::now();
  stats_.pack_ms += ms_between(pack_asked_, t1);
  ++stats_.pack_adopts;
  log_.add(SpanKind::kPack, policy_, pack_asked_, t1);
  inner_->adopt_score_pack(pack);
}

std::vector<accu::StrategyFactory> timed_roster(
    const std::vector<accu::StrategyFactory>& roster,
    std::vector<PolicyStats>& stats, SpanLog& log) {
  stats.assign(roster.size(), PolicyStats{});
  std::vector<accu::StrategyFactory> out;
  for (std::size_t i = 0; i < roster.size(); ++i) {
    out.push_back({roster[i].name, [&stats, &log, make = roster[i].make, i] {
                     return std::make_unique<TimedStrategy>(
                         make(), static_cast<std::uint8_t>(i), stats[i], log);
                   }});
  }
  return out;
}

const char* path_class_name(PathClass c) {
  switch (c) {
    case PathClass::kCheckpoint: return "checkpoint";
    case PathClass::kJournal: return "journal";
    case PathClass::kSpool: return "spool";
    case PathClass::kProgress: return "progress";
    case PathClass::kReport: return "report";
    case PathClass::kOther:
    case PathClass::kCount: break;
  }
  return "other";
}

PathClass classify_path(const std::string& raw) {
  std::string path = raw;
  if (path.size() > 4 && path.compare(path.size() - 4, 4, ".tmp") == 0) {
    path.resize(path.size() - 4);
  }
  const std::size_t slash = path.find_last_of('/');
  const std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  if (base.size() > 5 && base.compare(base.size() - 5, 5, ".ckpt") == 0) {
    return PathClass::kCheckpoint;
  }
  if (base == "journal") return PathClass::kJournal;
  if (path.find("/spool/") != std::string::npos) return PathClass::kSpool;
  if (base.rfind("progress.", 0) == 0) return PathClass::kProgress;
  if (base.size() > 3 && base.compare(base.size() - 3, 3, ".md") == 0) {
    return PathClass::kReport;
  }
  return PathClass::kOther;
}

int CountingIoEnv::open_write(const std::string& path,
                              accu::util::OpenMode mode) {
  const int fd = accu::util::real_io_env().open_write(path, mode);
  if (fd >= 0) {
    const PathClass c = classify_path(path);
    const std::lock_guard<std::mutex> lock(mu_);
    open_[fd] = c;
  }
  return fd;
}

long CountingIoEnv::write(int fd, const char* data, std::size_t len) {
  const long n = accu::util::real_io_env().write(fd, data, len);
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = open_.find(fd);
  IoCounts& c = counts_[static_cast<int>(
      it == open_.end() ? PathClass::kOther : it->second)];
  ++c.writes;
  if (n > 0) c.bytes += static_cast<std::uint64_t>(n);
  return n;
}

int CountingIoEnv::fsync(int fd) {
  const Clock::time_point t0 = Clock::now();
  const int rc = accu::util::real_io_env().fsync(fd);
  const double ms = ms_between(t0, Clock::now());
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = open_.find(fd);
  IoCounts& c = counts_[static_cast<int>(
      it == open_.end() ? PathClass::kOther : it->second)];
  ++c.fsyncs;
  c.fsync_ms += ms;
  return rc;
}

int CountingIoEnv::close(int fd) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    open_.erase(fd);
  }
  return accu::util::real_io_env().close(fd);
}

int CountingIoEnv::rename(const std::string& from, const std::string& to) {
  const int rc = accu::util::real_io_env().rename(from, to);
  const std::lock_guard<std::mutex> lock(mu_);
  ++counts_[static_cast<int>(classify_path(to))].renames;
  return rc;
}

int CountingIoEnv::truncate(const std::string& path, std::uint64_t length) {
  return accu::util::real_io_env().truncate(path, length);
}

int CountingIoEnv::unlink(const std::string& path) {
  return accu::util::real_io_env().unlink(path);
}

accu::util::DirSyncResult CountingIoEnv::fsync_dir(const std::string& dir) {
  const accu::util::DirSyncResult rc =
      accu::util::real_io_env().fsync_dir(dir);
  // A directory fsync commits the names inside it; attribute it to the
  // directory's own role (spool/, a job dir holding checkpoints, ...).
  const PathClass c = dir.size() >= 5 &&
                              dir.compare(dir.size() - 5, 5, "spool") == 0
                          ? PathClass::kSpool
                          : PathClass::kOther;
  const std::lock_guard<std::mutex> lock(mu_);
  ++counts_[static_cast<int>(c)].fsync_dirs;
  return rc;
}

long long CountingIoEnv::size(int fd) {
  return accu::util::real_io_env().size(fd);
}

IoCounts CountingIoEnv::counts(PathClass c) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return counts_[static_cast<int>(c)];
}

void CountingIoEnv::write_csv(const std::string& path) const {
  std::ofstream os(path);
  os << "class,writes,bytes,fsyncs,fsync_ms,fsync_dirs,renames\n";
  for (int i = 0; i < static_cast<int>(PathClass::kCount); ++i) {
    const IoCounts c = counts(static_cast<PathClass>(i));
    os << path_class_name(static_cast<PathClass>(i)) << ',' << c.writes << ','
       << c.bytes << ',' << c.fsyncs << ',' << c.fsync_ms << ','
       << c.fsync_dirs << ',' << c.renames << '\n';
  }
}

namespace {

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const std::size_t first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out;
}

}  // namespace

std::string host_stamp_json() {
  long l3 = -1;
#ifdef _SC_LEVEL3_CACHE_SIZE
  l3 = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
#endif
  char buf[768];
  std::snprintf(buf, sizeof buf,
                "{\"cpu\": \"%s\", \"nproc\": %u, \"l3_kib\": %ld, "
                "\"simd\": \"%s\", \"compiler\": \"%s\", \"build\": \"%s\"}",
                json_escape(cpu_model()).c_str(),
                std::thread::hardware_concurrency(),
                l3 > 0 ? l3 / 1024 : -1,
                accu::simd::isa_name(accu::simd::active_isa()),
                json_escape(__VERSION__).c_str(), PERFBENCH_BUILD_TYPE);
  return buf;
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  const long kib = self.ru_maxrss > children.ru_maxrss ? self.ru_maxrss
                                                        : children.ru_maxrss;
  return static_cast<double>(kib) / 1024.0;
}

}  // namespace perfbench
