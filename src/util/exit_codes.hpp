// Process exit codes shared by every accu binary (accu, the serve daemon
// and its workers).  One table instead of scattered magic numbers, so
// shell scripts — tools/ci.sh above all — can branch on a stable contract:
//
//   0    success
//   1    unhandled error (exception reached main)
//   2    usage error (bad command line)
//   3    merge found grid cells missing from every input
//   4    serve: at least one job was quarantined as poisoned
//   5    serve: another daemon already holds the root's pid lock
//   6    disk full (ENOSPC/EDQUOT) on a durable path — the checkpoint /
//        journal on disk is a valid prefix; free space and resume
//   7    fsync failed (file or directory) — dirty pages may be lost
//        (fsyncgate), the process fail-stopped rather than continue on a
//        handle whose durability can no longer be trusted; state on disk
//        is a valid prefix as of the last *successful* sync, resume re-runs
//        the rest
//   130  interrupted (SIGINT/SIGTERM drain; 128 + SIGINT by convention) —
//        state is checkpointed/journaled and resumable
//
// Codes are values, not an enum: they cross process boundaries (waitpid,
// shell $?), where the integer itself is the interface.

#pragma once

namespace accu::util::exit_code {

inline constexpr int kOk = 0;
inline constexpr int kFailure = 1;
inline constexpr int kUsage = 2;
inline constexpr int kMissingCells = 3;
inline constexpr int kQuarantined = 4;
inline constexpr int kAlreadyRunning = 5;
inline constexpr int kDiskFull = 6;
inline constexpr int kSyncLost = 7;
inline constexpr int kInterrupted = 130;

}  // namespace accu::util::exit_code
