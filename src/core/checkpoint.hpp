// Checkpoint codec (internal to the experiment harness): the on-disk format
// of run_experiment's crash-safe checkpoints and of the unsharded file
// merge_shard_checkpoints writes.  Line-oriented, mirroring the
// instance-io format:
//
//   # accu-checkpoint v2
//   sweep seed <u64> samples <S> runs <R> budget <k> strategies <n>
//   faults <drop> <timeout> <transient> <ratelimit> <w> retry <kind> <max>
//       <base> <cap>                                       (one line)
//   shard <i> <n>                              (optional; absent = 0 1)
//   feedback <spec>                         (optional; absent = full)
//   name <i> <strategy name>                               (n lines)
//   begin <task>
//   t <s> <target> <accepted> <cautious> <fault> <attempt> <benefit_after>
//   m <s> <num_abandoned>
//   end <task>
//   crc <task> <crc32-hex>
//
// One `begin..crc` block per completed (sample, run) cell: for each
// strategy s in roster order, its trace as `t` lines (at most `budget`)
// closed by one `m` line.  The header is written atomically (temp file +
// fsync + rename); each block is appended and fsynced as its cell
// finishes, so a crash loses at most the in-flight cell.  The `crc`
// trailer covers every byte from `begin` through the `end` line.
//
// The reader accepts exactly the grammar the writer produces: fields
// separated by single spaces, unsigned decimal integers, `0`/`1` flags and
// a finite double.  Any other byte in a block — `nan`, `inf`, `-1`, `+5`,
// an overflowing integer, a trailing token, a `\r`, a torn line, a CRC
// mismatch — ends the valid prefix: the loader stops at the last block
// that verifies, so a torn or bit-flipped tail costs one cell, not the
// run.  Doubles round-trip exactly (`%.17g` text) and blocks fold through
// TraceAggregator::add in fixed task order, so a resumed sweep's
// aggregates are bit-identical to an uninterrupted one.
// A file whose first line is not `# accu-checkpoint v2` is rejected with
// an IoError; version-1 files are no longer read.
//
// Task indices in `begin`/`end`/`crc` lines are *global* grid indices
// (sample * runs + run) even in a shard's file, so shard files from
// independent machines line up for the merge without translation.  The
// `shard` line pins the file to one ExperimentConfig shard identity:
// resume rejects a mismatch, while merge accepts any mix of identities
// (it deduplicates by task).  Files written before sharding existed lack
// the line and read as the unsharded 0/1.  The `feedback` line is written
// only for non-full models, so every full-feedback checkpoint keeps the
// bytes it had before the feedback axis existed.

#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hpp"

namespace accu::checkpoint {

/// Everything a checkpoint header pins: resume and merge compare it.
struct Fingerprint {
  std::uint64_t seed = 0;
  std::uint32_t samples = 0;
  std::uint32_t runs = 0;
  std::uint32_t budget = 0;
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  std::vector<std::string> names;
  FaultConfig faults{};
  util::RetryPolicy retry{};
  FeedbackModel feedback{};

  [[nodiscard]] std::size_t tasks() const noexcept {
    return static_cast<std::size_t>(samples) * runs;
  }
};

[[nodiscard]] Fingerprint fingerprint_of(const ExperimentConfig& config,
                                         const std::vector<std::string>& names);

/// The header lines for `fp`, magic line included.
[[nodiscard]] std::string header(const Fingerprint& fp);

/// Throws IoError unless `parsed` names the same experiment as `expected`.
/// Shard identity participates only when `check_shard` — a resume must
/// continue the exact shard, while the merge accepts any mix of shard
/// identities over the same sweep.
void check_fingerprint(const std::string& path, const Fingerprint& parsed,
                       const Fingerprint& expected, bool check_shard);

/// Replaces `out` with one completed cell's block, CRC trailer included.
/// Callers keep `out` across cells so appends reuse its capacity.
void serialize_cell(std::size_t task,
                    const std::vector<SimulationResult>& outcomes,
                    std::string& out);

class Cell;

/// Parses one block's exact bytes (`begin` through the `crc` line's
/// newline) against `fp`'s grid and budget, verifying the CRC over the raw
/// span.  Returns false, leaving `cell` unspecified, for anything the
/// writer could not have produced.
[[nodiscard]] bool parse_block(std::string_view bytes, const Fingerprint& fp,
                               Cell& cell);

/// One CRC-verified cell block.  Only the fields TraceAggregator::add
/// reads are kept: per strategy, the trace records (benefit_before
/// rebuilt from the previous record) and the run totals.
class Cell {
 public:
  std::size_t task = 0;
  // Where load() found the block: file offset of its `begin` line and its
  // length, `crc` line included.
  std::uint64_t offset = 0;
  std::uint64_t length = 0;

  [[nodiscard]] std::span<const RequestRecord> trace(std::size_t s) const {
    return {records_.data() + begins_[s], begins_[s + 1] - begins_[s]};
  }
  [[nodiscard]] const RunTotals& totals(std::size_t s) const {
    return totals_[s];
  }

 private:
  friend bool parse_block(std::string_view bytes, const Fingerprint& fp,
                          Cell& cell);
  std::vector<RequestRecord> records_;  // every strategy, roster order
  std::vector<std::size_t> begins_;     // strategies + 1 offsets into it
  std::vector<RunTotals> totals_;
};

struct LoadResult {
  std::uint64_t valid_end = 0;  ///< byte offset after the last valid block
  std::uint64_t file_size = 0;
};

/// Streams a checkpoint: parses the header into `parsed`, calls
/// `check_header` (which may throw to reject the file — `parsed` is
/// complete by then), then hands every valid cell block to `on_cell` in
/// file order, skipping later copies of a task (first wins).  A torn,
/// malformed or CRC-failing tail is dropped with a warning — the affected
/// cells re-run or count as missing — and `valid_end` tells the caller
/// where to truncate before appending.  Reads in fixed-size chunks:
/// memory is one block plus a fixed buffer, whatever the file size.
/// Throws IoError for an unreadable file or a bad header.
LoadResult load(const std::string& path, Fingerprint& parsed,
                const std::function<void()>& check_header,
                const std::function<void(const Cell&)>& on_cell);

/// Random access to blocks a load() already verified — the merge's copy
/// pass.  Keeps each file open once it is first read from.
class BlockReader {
 public:
  explicit BlockReader(std::vector<std::string> paths);

  /// Reads `length` bytes at `offset` of file number `file` and re-parses
  /// them into `cell` (its trace and totals; offset and length are left
  /// alone).  Returns the raw bytes, valid until the next call.
  /// Throws IoError when the bytes no longer verify (the file changed
  /// since it was loaded).
  std::string_view read(std::size_t file, std::uint64_t offset,
                        std::uint64_t length, const Fingerprint& fp,
                        Cell& cell);

 private:
  struct Closer {
    void operator()(std::FILE* f) const noexcept { std::fclose(f); }
  };
  std::vector<std::string> paths_;
  std::vector<std::unique_ptr<std::FILE, Closer>> files_;
  std::vector<std::uint64_t> positions_;  // where each handle's cursor is
  std::string bytes_;
};

}  // namespace accu::checkpoint
