#include "core/checkpoint.hpp"

#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "util/crc32.hpp"
#include "util/log.hpp"

namespace accu::checkpoint {

namespace {

// Longest line the writer can emit inside a block is a `t` line: two
// 20-digit and two 10-digit integers, three one-digit fields and a
// 24-character %.17g double plus separators — under 100 bytes.
constexpr std::size_t kMaxCellLine = 128;
// Header lines carry strategy names and a feedback spec; anything longer
// than this is not a header the writer produced.
constexpr std::size_t kMaxHeaderLine = 16 * 1024;
constexpr std::size_t kChunkBytes = 64 * 1024;
constexpr std::string_view kMagic = "# accu-checkpoint v2";
// Longest number text: a 20-digit u64, or a 24-character %.17g double.
constexpr std::size_t kMaxNumber = 24;

// --- writing ----------------------------------------------------------------

// Callers leave kMaxNumber bytes of room at `p`.
template <typename T>
char* put(char* p, T value) {
  return std::to_chars(p, p + kMaxNumber, value).ptr;
}

/// `%.17g`: the standard defines to_chars(general, precision) as printf's
/// `%.*g` in the C locale, byte for byte.
char* put_real(char* p, double value) {
  return std::to_chars(p, p + kMaxNumber, value, std::chars_format::general,
                       17)
      .ptr;
}

template <typename T>
void append(std::string& out, T value) {
  char buf[kMaxNumber];
  out.append(buf, put(buf, value));
}

void append_real(std::string& out, double value) {
  char buf[kMaxNumber];
  out.append(buf, put_real(buf, value));
}

/// `%08x`.
void append_hex8(std::string& out, std::uint32_t value) {
  constexpr char kDigits[] = "0123456789abcdef";
  for (int shift = 28; shift >= 0; shift -= 4) {
    out += kDigits[(value >> shift) & 0xfu];
  }
}

// --- reading ----------------------------------------------------------------

/// Cursor over one line of the writer's grammar.  Each step consumes one
/// token and fails (sticky) on anything the writer would not produce.
class Fields {
 public:
  explicit Fields(std::string_view line)
      : p_(line.data()), end_(line.data() + line.size()) {}

  /// The literal `text` (separators included).
  Fields& lit(std::string_view text) {
    if (ok_ && static_cast<std::size_t>(end_ - p_) >= text.size() &&
        std::memcmp(p_, text.data(), text.size()) == 0) {
      p_ += text.size();
    } else {
      ok_ = false;
    }
    return *this;
  }
  Fields& sp() { return lit(" "); }

  /// An unsigned decimal integer that fits T: no sign, no overflow.
  template <typename T>
  Fields& num(T& out) {
    if (ok_) {
      const auto [next, ec] = std::from_chars(p_, end_, out);
      ok_ = ec == std::errc() && next != p_;
      p_ = next;
    }
    return *this;
  }

  /// A `0` or `1` flag.
  Fields& flag(bool& out) {
    ok_ = ok_ && p_ != end_ && (*p_ == '0' || *p_ == '1');
    if (ok_) out = *p_++ == '1';
    return *this;
  }

  /// One decimal digit no greater than `max`.
  Fields& digit(unsigned& out, unsigned max) {
    ok_ = ok_ && p_ != end_ && *p_ >= '0' &&
          static_cast<unsigned>(*p_ - '0') <= max;
    if (ok_) out = static_cast<unsigned>(*p_++ - '0');
    return *this;
  }

  /// A finite double (no `nan`, `inf`, overflow or leading `+`).
  Fields& real(double& out) {
    if (ok_) {
      const auto [next, ec] = std::from_chars(p_, end_, out);
      ok_ = ec == std::errc() && next != p_ && std::isfinite(out);
      p_ = next;
    }
    return *this;
  }

  /// The unparsed rest of the line (consumes it).
  std::string_view rest() {
    const std::string_view tail(p_, static_cast<std::size_t>(end_ - p_));
    p_ = end_;
    return tail;
  }

  /// True when every step matched and the whole line was consumed.
  [[nodiscard]] bool done() const noexcept { return ok_ && p_ == end_; }

 private:
  const char* p_;
  const char* end_;
  bool ok_ = true;
};

bool starts_with(std::string_view line, std::string_view prefix) {
  return line.substr(0, prefix.size()) == prefix;
}

/// Sequential line reader: fixed-size chunk reads, lines found with
/// memchr.  A returned line views the internal buffer and stays valid
/// until the next call.  While pinned, every byte from the pin on stays
/// contiguous in the buffer (one cell block, checked as a raw span); the
/// buffer grows only when a pinned block outgrows it.
class LineReader {
 public:
  LineReader(std::FILE* file, const std::string& path)
      : file_(file), path_(path), buf_(kChunkBytes) {}

  /// The next `\n`-terminated line, terminator excluded.  False at end of
  /// file, on an unterminated last line, or past `max_len` bytes.
  bool next(std::string_view& line, std::size_t max_len) {
    for (;;) {
      const void* nl = std::memchr(buf_.data() + scan_, '\n', end_ - scan_);
      if (nl != nullptr) {
        const std::size_t at =
            static_cast<std::size_t>(static_cast<const char*>(nl) -
                                     buf_.data());
        if (at - pos_ > max_len) return false;
        line = std::string_view(buf_.data() + pos_, at - pos_);
        pos_ = scan_ = at + 1;
        return true;
      }
      scan_ = end_;
      if (end_ - pos_ > max_len || !fill()) return false;
    }
  }

  /// File offset of the first unread byte.
  [[nodiscard]] std::uint64_t offset() const noexcept { return base_ + pos_; }

  void pin() noexcept {
    pin_ = pos_;
    pinned_ = true;
  }
  /// The bytes read since pin().
  [[nodiscard]] std::string_view pinned() const noexcept {
    return {buf_.data() + pin_, pos_ - pin_};
  }

 private:
  bool fill() {
    if (eof_) return false;
    const std::size_t keep = pinned_ ? pin_ : pos_;
    if (keep > 0) {
      std::memmove(buf_.data(), buf_.data() + keep, end_ - keep);
      base_ += keep;
      pos_ -= keep;
      scan_ -= keep;
      end_ -= keep;
      pin_ -= pinned_ ? keep : 0;
    }
    if (end_ == buf_.size()) buf_.resize(buf_.size() * 2);
    const std::size_t got =
        std::fread(buf_.data() + end_, 1, buf_.size() - end_, file_);
    if (got == 0) {
      if (std::ferror(file_) != 0) {
        throw IoError("cannot read checkpoint " + path_);
      }
      eof_ = true;
      return false;
    }
    end_ += got;
    return true;
  }

  std::FILE* file_;
  const std::string& path_;
  std::vector<char> buf_;
  std::size_t pos_ = 0;   // first unread byte
  std::size_t scan_ = 0;  // no '\n' in [pos_, scan_)
  std::size_t end_ = 0;   // bytes held
  std::size_t pin_ = 0;
  bool pinned_ = false;
  bool eof_ = false;
  std::uint64_t base_ = 0;  // file offset of buf_[0]
};

[[noreturn]] void bad_header(const std::string& path, const char* what) {
  throw IoError("checkpoint " + path + ": " + what);
}

void parse_header(LineReader& reader, const std::string& path,
                  Fingerprint& fp) {
  std::string_view line;
  auto next_line = [&](const char* missing) {
    if (!reader.next(line, kMaxHeaderLine)) bad_header(path, missing);
  };
  if (!reader.next(line, kMaxHeaderLine)) bad_header(path, "empty file");
  if (line != kMagic) {
    constexpr std::string_view kVersionPrefix = "# accu-checkpoint v";
    if (starts_with(line, kVersionPrefix)) {
      throw IoError("checkpoint " + path + " is format version " +
                    std::string(line.substr(kVersionPrefix.size())) +
                    ", which this build no longer reads (it reads v2); "
                    "delete it and re-run the sweep");
    }
    bad_header(path, "not an accu checkpoint (no '# accu-checkpoint v2' "
                     "line)");
  }

  std::size_t nstrategies = 0;
  next_line("missing sweep header");
  if (!Fields(line)
           .lit("sweep seed ").num(fp.seed)
           .lit(" samples ").num(fp.samples)
           .lit(" runs ").num(fp.runs)
           .lit(" budget ").num(fp.budget)
           .lit(" strategies ").num(nstrategies)
           .done()) {
    bad_header(path, "malformed sweep header");
  }

  unsigned kind = 0;
  next_line("missing faults line");
  if (!Fields(line)
           .lit("faults ").real(fp.faults.drop_rate)
           .sp().real(fp.faults.timeout_rate)
           .sp().real(fp.faults.transient_rate)
           .sp().real(fp.faults.rate_limit_rate)
           .sp().num(fp.faults.suspension_rounds)
           .lit(" retry ").num(kind)
           .sp().num(fp.retry.max_retries)
           .sp().num(fp.retry.base_delay)
           .sp().num(fp.retry.max_delay)
           .done() ||
      kind > static_cast<unsigned>(util::RetryKind::kExponentialJitter)) {
    bad_header(path, "malformed faults line");
  }
  fp.retry.kind = static_cast<util::RetryKind>(kind);

  // Optional shard line (absent in pre-shard files: 0/1), optional
  // feedback line (absent = full), then the strategy roster.
  next_line("missing strategy name line");
  if (starts_with(line, "shard ")) {
    if (!Fields(line).lit("shard ").num(fp.shard_index).sp()
             .num(fp.shard_count).done() ||
        fp.shard_count == 0 || fp.shard_index >= fp.shard_count) {
      bad_header(path, "malformed shard line");
    }
    next_line("missing strategy name line");
  } else {
    fp.shard_index = 0;
    fp.shard_count = 1;
  }
  if (starts_with(line, "feedback ")) {
    try {
      fp.feedback = FeedbackModel::parse(std::string(line.substr(9)));
    } catch (const InvalidArgument& e) {
      throw IoError("checkpoint " + path + ": malformed feedback line (" +
                    e.what() + ")");
    }
    next_line("missing strategy name line");
  } else {
    fp.feedback = FeedbackModel{};
  }
  // Names are read one line at a time, so a forged strategy count costs
  // no allocation beyond the lines actually present.
  fp.names.clear();
  for (std::size_t i = 0; i < nstrategies; ++i) {
    if (i > 0) next_line("missing strategy name line");
    std::size_t index = 0;
    Fields fields(line);
    fields.lit("name ").num(index).sp();
    const std::string_view name = fields.rest();
    if (!fields.done() || index != i) {
      bad_header(path, "malformed strategy name line");
    }
    fp.names.emplace_back(name);
  }
}

}  // namespace

// --- public surface -----------------------------------------------------------

Fingerprint fingerprint_of(const ExperimentConfig& config,
                           const std::vector<std::string>& names) {
  Fingerprint fp;
  fp.seed = config.seed;
  fp.samples = config.samples;
  fp.runs = config.runs;
  fp.budget = config.budget;
  fp.shard_index = config.shard_index;
  fp.shard_count = config.shard_count;
  fp.names = names;
  fp.faults = config.faults;
  fp.retry = config.retry;
  fp.feedback = config.feedback;
  return fp;
}

std::string header(const Fingerprint& fp) {
  std::string out(kMagic);
  out += "\nsweep seed ";
  append(out, fp.seed);
  out += " samples ";
  append(out, fp.samples);
  out += " runs ";
  append(out, fp.runs);
  out += " budget ";
  append(out, fp.budget);
  out += " strategies ";
  append(out, fp.names.size());
  out += "\nfaults ";
  for (const double rate : {fp.faults.drop_rate, fp.faults.timeout_rate,
                            fp.faults.transient_rate,
                            fp.faults.rate_limit_rate}) {
    append_real(out, rate);
    out += ' ';
  }
  append(out, fp.faults.suspension_rounds);
  out += " retry ";
  append(out, static_cast<unsigned>(fp.retry.kind));
  for (const std::uint32_t v :
       {fp.retry.max_retries, fp.retry.base_delay, fp.retry.max_delay}) {
    out += ' ';
    append(out, v);
  }
  out += "\nshard ";
  append(out, fp.shard_index);
  out += ' ';
  append(out, fp.shard_count);
  out += '\n';
  // The feedback line is written only for non-full models so every
  // checkpoint file a full-feedback sweep writes stays byte-identical to
  // the pre-feedback-axis format (and old files read as full).
  if (!fp.feedback.is_full()) {
    out += "feedback ";
    out += fp.feedback.spec();
    out += '\n';
  }
  for (std::size_t i = 0; i < fp.names.size(); ++i) {
    out += "name ";
    append(out, i);
    out += ' ';
    out += fp.names[i];
    out += '\n';
  }
  return out;
}

void check_fingerprint(const std::string& path, const Fingerprint& parsed,
                       const Fingerprint& expected, bool check_shard) {
  auto mismatch = [&path](const char* what) {
    throw IoError("checkpoint " + path +
                  " does not match this experiment (" + what +
                  "); delete it or pick another path to start fresh");
  };
  if (parsed.seed != expected.seed || parsed.samples != expected.samples ||
      parsed.runs != expected.runs || parsed.budget != expected.budget ||
      parsed.names.size() != expected.names.size()) {
    mismatch("different sweep shape or seed");
  }
  const FaultConfig& f = expected.faults;
  const util::RetryPolicy& r = expected.retry;
  if (parsed.faults.drop_rate != f.drop_rate ||
      parsed.faults.timeout_rate != f.timeout_rate ||
      parsed.faults.transient_rate != f.transient_rate ||
      parsed.faults.rate_limit_rate != f.rate_limit_rate ||
      parsed.faults.suspension_rounds != f.suspension_rounds ||
      parsed.retry.kind != r.kind ||
      parsed.retry.max_retries != r.max_retries ||
      parsed.retry.base_delay != r.base_delay ||
      parsed.retry.max_delay != r.max_delay) {
    mismatch("different fault or retry configuration");
  }
  if (parsed.feedback != expected.feedback) {
    mismatch("different feedback model");
  }
  if (parsed.names != expected.names) mismatch("different strategy roster");
  if (check_shard && (parsed.shard_index != expected.shard_index ||
                      parsed.shard_count != expected.shard_count)) {
    mismatch("different shard identity");
  }
}

void serialize_cell(std::size_t task,
                    const std::vector<SimulationResult>& outcomes,
                    std::string& out) {
  out.clear();
  out += "begin ";
  append(out, task);
  out += '\n';
  char line[kMaxCellLine];
  for (std::size_t s = 0; s < outcomes.size(); ++s) {
    for (const RequestRecord& r : outcomes[s].trace) {
      char* p = line;
      *p++ = 't';
      *p++ = ' ';
      p = put(p, s);
      *p++ = ' ';
      p = put(p, r.target);
      *p++ = ' ';
      *p++ = r.accepted ? '1' : '0';
      *p++ = ' ';
      *p++ = r.cautious_target ? '1' : '0';
      *p++ = ' ';
      p = put(p, static_cast<unsigned>(r.fault));
      *p++ = ' ';
      p = put(p, r.attempt);
      *p++ = ' ';
      p = put_real(p, r.benefit_after);
      *p++ = '\n';
      out.append(line, p);
    }
    out += "m ";
    append(out, s);
    out += ' ';
    append(out, outcomes[s].num_abandoned);
    out += '\n';
  }
  out += "end ";
  append(out, task);
  out += '\n';
  const std::uint32_t crc = util::crc32(out);
  out += "crc ";
  append(out, task);
  out += ' ';
  append_hex8(out, crc);
  out += '\n';
}

bool parse_block(std::string_view bytes, const Fingerprint& fp, Cell& cell) {
  const char* p = bytes.data();
  const char* const end = p + bytes.size();
  std::string_view line;
  auto next_line = [&]() {
    const void* nl = std::memchr(p, '\n', static_cast<std::size_t>(end - p));
    if (nl == nullptr) return false;
    const char* stop = static_cast<const char*>(nl);
    line = std::string_view(p, static_cast<std::size_t>(stop - p));
    p = stop + 1;
    return true;
  };

  std::size_t task = 0;
  if (!next_line() || !Fields(line).lit("begin ").num(task).done() ||
      task >= fp.tasks()) {
    return false;
  }
  const std::size_t nstrategies = fp.names.size();
  cell.records_.clear();
  cell.begins_.assign(1, 0);
  cell.totals_.assign(nstrategies, RunTotals{});
  for (std::size_t s = 0; s < nstrategies; ++s) {
    RunTotals& totals = cell.totals_[s];
    double before = 0.0;
    std::size_t count = 0;
    // Every record line of strategy s starts `t <s> ` and its closing line
    // `m <s> `: one compare checks the tag and the strategy index.
    char tag[kMaxNumber + 3] = "t ";
    char* tag_end = put(tag + 2, s);
    *tag_end++ = ' ';
    const std::string t_prefix(tag, tag_end);
    tag[0] = 'm';
    const std::string m_prefix(tag, tag_end);
    for (;;) {
      if (!next_line()) return false;
      if (starts_with(line, m_prefix)) {
        if (!Fields(line).lit(m_prefix).num(totals.abandoned).done()) {
          return false;
        }
        break;
      }
      RequestRecord r;
      unsigned fault = 0;
      if (!Fields(line)
               .lit(t_prefix).num(r.target)
               .sp().flag(r.accepted)
               .sp().flag(r.cautious_target)
               .sp().digit(fault, static_cast<unsigned>(
                                      FaultKind::kSuspensionStall))
               .sp().num(r.attempt)
               .sp().real(r.benefit_after)
               .done() ||
          ++count > fp.budget) {
        return false;
      }
      r.fault = static_cast<FaultKind>(fault);
      r.benefit_before = before;
      before = r.benefit_after;
      if (r.accepted) {
        ++totals.accepted;
        if (r.cautious_target) ++totals.cautious_friends;
      }
      if (r.fault == FaultKind::kSuspensionStall) {
        ++totals.suspended;
      } else if (r.fault != FaultKind::kNone) {
        ++totals.faulted;
      }
      if (r.attempt > 0) ++totals.retries;
      cell.records_.push_back(r);
    }
    totals.benefit = before;
    cell.begins_.push_back(cell.records_.size());
  }
  std::size_t end_task = 0;
  if (!next_line() || !Fields(line).lit("end ").num(end_task).done() ||
      end_task != task) {
    return false;
  }
  const std::size_t covered = static_cast<std::size_t>(p - bytes.data());
  std::size_t crc_task = 0;
  if (!next_line() || p != end) return false;
  Fields crc_line(line);
  crc_line.lit("crc ").num(crc_task).sp();
  std::string expected;
  append_hex8(expected, util::crc32(bytes.substr(0, covered)));
  if (!crc_line.lit(expected).done() || crc_task != task) return false;
  cell.task = task;
  return true;
}

LoadResult load(const std::string& path, Fingerprint& parsed,
                const std::function<void()>& check_header,
                const std::function<void(const Cell&)>& on_cell) {
  std::FILE* raw = std::fopen(path.c_str(), "rb");
  if (raw == nullptr) {
    throw IoError("cannot open checkpoint for reading: " + path);
  }
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(raw,
                                                             &std::fclose);
  LoadResult loaded;
  std::error_code ec;
  loaded.file_size = std::filesystem::file_size(path, ec);
  if (ec) throw IoError("cannot stat checkpoint " + path);

  LineReader reader(raw, path);
  parse_header(reader, path, parsed);
  check_header();
  std::vector<bool> seen(parsed.tasks(), false);
  loaded.valid_end = reader.offset();

  // Cell blocks: the lines from `begin` through the next `crc` line, at
  // most `begin`, one `t` line per budget unit and one `m` line per
  // strategy, `end` and `crc`.  Anything else ends the valid prefix.
  const std::uint64_t max_lines =
      3 + static_cast<std::uint64_t>(parsed.names.size()) *
              (static_cast<std::uint64_t>(parsed.budget) + 1);
  Cell cell;
  const char* torn_reason = nullptr;
  std::string_view line;
  reader.pin();
  while (reader.next(line, kMaxCellLine)) {
    bool closed = false;
    for (std::uint64_t lines = 1;
         lines < max_lines && reader.next(line, kMaxCellLine); ++lines) {
      if (starts_with(line, "crc ")) {
        closed = true;
        break;
      }
    }
    const std::string_view block = reader.pinned();
    if (!closed || !parse_block(block, parsed, cell)) {
      torn_reason = "truncated, malformed or CRC-failing cell block";
      break;
    }
    cell.offset = loaded.valid_end;
    cell.length = block.size();
    loaded.valid_end = reader.offset();
    reader.pin();
    if (seen[cell.task]) continue;  // duplicate block: keep the first
    seen[cell.task] = true;
    on_cell(cell);
  }
  if (loaded.valid_end < loaded.file_size) {
    util::log_warn(
        "checkpoint %s: %s at byte %" PRIu64 " — dropping the tail "
        "(%" PRIu64 " bytes); the affected cells will re-run",
        path.c_str(), torn_reason != nullptr ? torn_reason : "trailing bytes",
        loaded.valid_end, loaded.file_size - loaded.valid_end);
  }
  return loaded;
}

BlockReader::BlockReader(std::vector<std::string> paths)
    : paths_(std::move(paths)),
      files_(paths_.size()),
      positions_(paths_.size(), 0) {}

std::string_view BlockReader::read(std::size_t file, std::uint64_t offset,
                                   std::uint64_t length,
                                   const Fingerprint& fp, Cell& cell) {
  const std::string& path = paths_[file];
  if (!files_[file]) {
    files_[file].reset(std::fopen(path.c_str(), "rb"));
    if (!files_[file]) {
      throw IoError("cannot open checkpoint for reading: " + path);
    }
    positions_[file] = 0;
  }
  std::FILE* f = files_[file].get();
  // Blocks a shard file holds in task order are read back to back, so
  // the cursor is usually in place already.
  if (positions_[file] != offset &&
      std::fseek(f, static_cast<long>(offset), SEEK_SET) != 0) {
    throw IoError("cannot seek in checkpoint " + path);
  }
  bytes_.resize(length);
  const bool whole = std::fread(bytes_.data(), 1, length, f) == length;
  positions_[file] = offset + length;
  if (!whole || !parse_block(bytes_, fp, cell)) {
    throw IoError("checkpoint " + path + " changed while it was being merged");
  }
  return bytes_;
}

}  // namespace accu::checkpoint
