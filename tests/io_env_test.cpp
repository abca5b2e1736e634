// Tests for the injectable I/O environment (util/io_env.hpp) and the
// durability semantics util/atomic_file builds on top of it: short writes
// and EINTR are absorbed, ENOSPC and failed fsyncs fail-stop with their
// dedicated exception types, a failed fsync poisons the appender for good
// (fsyncgate), and FaultyFs's shadow-durability model answers the only
// question that matters after a crash — "what is actually on disk?".

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "util/atomic_file.hpp"
#include "util/error.hpp"
#include "util/io_env.hpp"
#include "test_paths.hpp"

#ifdef ACCU_HAVE_POSIX_IO

namespace accu::util {
namespace {

using test::temp_path;

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream out;
  out << is.rdbuf();
  return out.str();
}

bool file_exists(const std::string& path) {
  std::ifstream is(path);
  return is.good();
}

TEST(IoEnvTest, ScopedOverrideInstallsAndRestores) {
  FaultyFs faulty;
  EXPECT_EQ(&io_env(), &real_io_env());
  {
    ScopedIoEnv scoped(faulty);
    EXPECT_EQ(&io_env(), &faulty);
  }
  EXPECT_EQ(&io_env(), &real_io_env());
}

TEST(IoEnvTest, ShortWritesAreRetriedToCompletion) {
  const std::string path = temp_path("ioenv_short.log");
  FaultyFs faulty;
  faulty.short_write_cap(3);
  {
    ScopedIoEnv scoped(faulty);
    DurableAppender out;
    out.open(path);
    out.append("hello, short-write world\n");
    out.sync();
  }
  EXPECT_EQ(read_file(path), "hello, short-write world\n");
  std::string durable;
  ASSERT_TRUE(faulty.durable_content(path, &durable));
  EXPECT_EQ(durable, "hello, short-write world\n");
}

TEST(IoEnvTest, EintrBurstIsAbsorbedAndIsNotACrashBoundary) {
  const std::string path = temp_path("ioenv_eintr.log");
  FaultyFs faulty;
  {
    ScopedIoEnv scoped(faulty);
    DurableAppender out;
    out.open(path);
    const std::uint64_t before = faulty.op_count();
    faulty.eintr_burst(7);
    out.append("x");
    // One effectful write; the 7 EINTR rejections consumed no boundaries.
    EXPECT_EQ(faulty.op_count(), before + 1);
    out.sync();
  }
  EXPECT_EQ(read_file(path), "x");
}

TEST(IoEnvTest, DiskBudgetExhaustionThrowsDiskFullError) {
  const std::string path = temp_path("ioenv_enospc.log");
  FaultyFs faulty;
  faulty.disk_budget(10);
  ScopedIoEnv scoped(faulty);
  DurableAppender out;
  out.open(path);
  // The write crossing the budget is short; the retry hits ENOSPC.
  EXPECT_THROW(out.append("0123456789abcdef"), DiskFullError);
}

TEST(IoEnvTest, WriteFileAtomicOnEnospcLeavesTargetUntouched) {
  const std::string path = temp_path("ioenv_enospc_target.txt");
  write_file_atomic(path, "old contents\n");
  FaultyFs faulty;
  faulty.disk_budget(4);
  {
    ScopedIoEnv scoped(faulty);
    EXPECT_THROW(write_file_atomic(path, "new contents that do not fit\n"),
                 DiskFullError);
  }
  EXPECT_EQ(read_file(path), "old contents\n");
  EXPECT_FALSE(file_exists(path + ".tmp"));  // temp cleaned up
}

TEST(IoEnvTest, FsyncFailureDropsDirtyPagesAndPoisonsTheAppender) {
  const std::string path = temp_path("ioenv_fsyncgate.log");
  FaultyFs faulty;
  ScopedIoEnv scoped(faulty);
  DurableAppender out;
  out.open(path);  // fsync #1: the parent-directory sync
  out.append("committed\n");
  out.sync();  // fsync #2: succeeds
  out.append("doomed\n");
  faulty.fail_fsync(faulty.sync_count() + 1);
  EXPECT_THROW(out.sync(), SyncFailedError);
  EXPECT_TRUE(out.sync_failed());
  // Sticky: the handle refuses further use even though the *next* fsync
  // would report success — that success would be over dropped pages.
  EXPECT_THROW(out.append("more\n"), SyncFailedError);
  EXPECT_THROW(out.sync(), SyncFailedError);
  // The shadow model agrees: only the committed record is durable.
  std::string durable;
  ASSERT_TRUE(faulty.durable_content(path, &durable));
  EXPECT_EQ(durable, "committed\n");
}

TEST(IoEnvTest, AppenderCreationIsNotDurableBeforeDirectoryFsync) {
  const std::string path = temp_path("ioenv_newname.log");
  FaultyFs faulty;
  {
    ScopedIoEnv scoped(faulty);
    // Crash exactly on the parent-directory fsync of open(): the inode may
    // hold synced bytes, but the *name* never became durable.
    faulty.crash_at(2);  // op 1 = open, op 2 = fsync_dir
    DurableAppender out;
    EXPECT_THROW(out.open(path), SyncFailedError);
    faulty.materialize_crash_state();
  }
  EXPECT_FALSE(file_exists(path));
}

TEST(IoEnvTest, RenameIsNotDurableBeforeDirectoryFsync) {
  const std::string path = temp_path("ioenv_rename.txt");
  write_file_atomic(path, "old\n");
  FaultyFs faulty;
  {
    ScopedIoEnv scoped(faulty);
    // write_file_atomic ops: open(1) write(2) fsync(3) rename(4) dir(5).
    faulty.crash_at(5);
    EXPECT_THROW(write_file_atomic(path, "new\n"), SyncFailedError);
    // In-cache view already shows the rename...
    EXPECT_EQ(read_file(path), "new\n");
    faulty.materialize_crash_state();
  }
  // ...but power loss before the dir fsync keeps the old file.
  EXPECT_EQ(read_file(path), "old\n");
}

TEST(IoEnvTest, WriteFileAtomicCrashEnumerationNeverTearsTheTarget) {
  const std::string path = temp_path("ioenv_enum.txt");
  // Pass 1: count the ops of a clean replacement.
  std::uint64_t total_ops = 0;
  {
    write_file_atomic(path, "old\n");
    FaultyFs probe;
    ScopedIoEnv scoped(probe);
    write_file_atomic(path, "new\n");
    total_ops = probe.op_count();
  }
  ASSERT_GE(total_ops, 4u);
  // Pass 2: crash at every boundary; the file is always whole — exactly
  // "old" or exactly "new", never a mix, never missing.
  for (std::uint64_t k = 1; k <= total_ops; ++k) {
    write_file_atomic(path, "old\n");
    FaultyFs faulty;
    faulty.crash_at(k);
    {
      ScopedIoEnv scoped(faulty);
      EXPECT_THROW(write_file_atomic(path, "new\n"), IoError)
          << "crash op " << k;
      faulty.materialize_crash_state();
    }
    const std::string survived = read_file(path);
    EXPECT_TRUE(survived == "old\n" || survived == "new\n")
        << "crash op " << k << " left: " << survived;
  }
}

TEST(IoEnvTest, AppenderRecordsSurviveCrashOnlyUpToTheLastFsync) {
  const std::string path = temp_path("ioenv_append_crash.log");
  FaultyFs faulty;
  {
    ScopedIoEnv scoped(faulty);
    DurableAppender out;
    out.open(path);
    out.append("one\n");
    out.sync();
    out.append("two\n");  // never synced
    const std::uint64_t next = faulty.op_count() + 1;
    faulty.crash_at(next);
    EXPECT_THROW(
        [&] {
          out.append("three\n");
          out.sync();
        }(),
        IoError);
    faulty.materialize_crash_state();
  }
  EXPECT_EQ(read_file(path), "one\n");
}

TEST(IoEnvTest, CheckedDirFsyncThrowsOnHardError) {
  const std::string dir = testing::TempDir();
  FaultyFs faulty;
  ScopedIoEnv scoped(faulty);
  checked_fsync_dir(dir);  // healthy: no throw
  faulty.fail_fsync(faulty.sync_count() + 1);
  EXPECT_THROW(checked_fsync_dir(dir), SyncFailedError);
}

// ---------------------------------------------------------------------------
// DurabilityPolicy + GroupCommitAppender

TEST(DurabilityPolicyTest, ParsesModesAndRejectsUnknown) {
  EXPECT_EQ(DurabilityPolicy::parse_mode("strict"),
            DurabilityPolicy::Mode::kStrict);
  EXPECT_EQ(DurabilityPolicy::parse_mode("grouped"),
            DurabilityPolicy::Mode::kGrouped);
  EXPECT_THROW((void)DurabilityPolicy::parse_mode("buffered"),
               InvalidArgument);
}

TEST(DurabilityPolicyTest, ValidateRejectsOutOfRangeKnobs) {
  DurabilityPolicy policy;
  policy.group_cells = 0;
  EXPECT_THROW(policy.validate(), InvalidArgument);
  policy.group_cells = 2000000;
  EXPECT_THROW(policy.validate(), InvalidArgument);
  policy.group_cells = 64;
  policy.group_ms = 0;
  EXPECT_THROW(policy.validate(), InvalidArgument);
  policy.group_ms = 700000;
  EXPECT_THROW(policy.validate(), InvalidArgument);
  policy.group_ms = 100;
  EXPECT_NO_THROW(policy.validate());
}

TEST(GroupCommitTest, StrictSyncsEveryRecord) {
  const std::string path = temp_path("gc_strict.log");
  GroupCommitAppender out;
  out.open(path, DurabilityPolicy{});
  out.append_record("a\n");
  out.append_record("b\n");
  out.append_record("c\n");
  EXPECT_EQ(out.sync_count(), 3u);
  EXPECT_EQ(out.pending(), 0u);
}

TEST(GroupCommitTest, GroupedSyncsEveryNRecordsAndOnFlush) {
  const std::string path = temp_path("gc_grouped.log");
  DurabilityPolicy policy;
  policy.mode = DurabilityPolicy::Mode::kGrouped;
  policy.group_cells = 3;
  policy.group_ms = 600000;  // effectively "cells only"
  GroupCommitAppender out;
  out.open(path, policy);
  out.append_record("1\n");
  out.append_record("2\n");
  EXPECT_EQ(out.sync_count(), 0u);
  EXPECT_EQ(out.pending(), 2u);
  out.append_record("3\n");  // hits the cell bound
  EXPECT_EQ(out.sync_count(), 1u);
  EXPECT_EQ(out.pending(), 0u);
  out.append_record("4\n");
  out.flush();  // forced flush syncs the partial group
  EXPECT_EQ(out.sync_count(), 2u);
  out.flush();  // nothing pending: no extra fsync
  EXPECT_EQ(out.sync_count(), 2u);
  EXPECT_EQ(read_file(path), "1\n2\n3\n4\n");
}

TEST(GroupCommitTest, GroupedCrashLosesAtMostTheOpenGroup) {
  const std::string path = temp_path("gc_crash.log");
  FaultyFs faulty;
  {
    ScopedIoEnv scoped(faulty);
    DurabilityPolicy policy;
    policy.mode = DurabilityPolicy::Mode::kGrouped;
    policy.group_cells = 2;
    policy.group_ms = 600000;
    GroupCommitAppender out;
    out.open(path, policy);
    out.append_record("1\n");
    out.append_record("2\n");  // group of 2 → synced
    out.append_record("3\n");  // open group
    faulty.crash_at(faulty.op_count() + 1);
    EXPECT_THROW(
        [&] {
          out.append_record("4\n");
          out.flush();
        }(),
        IoError);
    faulty.materialize_crash_state();
  }
  EXPECT_EQ(read_file(path), "1\n2\n");
}

TEST(GroupCommitTest, OpenRejectsInvalidPolicy) {
  DurabilityPolicy policy;
  policy.group_cells = 0;
  GroupCommitAppender out;
  EXPECT_THROW(out.open(temp_path("gc_bad.log"), policy), InvalidArgument);
}

}  // namespace
}  // namespace accu::util

#endif  // ACCU_HAVE_POSIX_IO
