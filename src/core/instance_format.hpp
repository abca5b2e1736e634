// Binary mmap-able instance format (".accui") — the zero-parse sibling of
// the text format in core/instance_io.hpp.
//
// Layout (all fields native-endian; an endian tag rejects foreign files):
//
//   [ 64-byte header ]           magic, version, endian tag, n, m, flags,
//                                footer offset/length, section count, CRC32
//                                of the header's first 60 bytes.
//   [ sections ]                 each 64-byte-aligned, zero-padded to the
//                                next boundary, in the fixed id order below.
//   [ footer ]                   one 32-byte entry per section
//                                {id, crc32, offset, length, reserved=0}
//                                followed by a CRC32 of the entry bytes.
//
// Section ids and element types (sizes derive from (n, m, flags) alone, so
// a writer knows the whole layout — header included — before emitting the
// first byte, and writes the file purely sequentially):
//
//    1 offsets     uint64 [n+1]      CSR row offsets
//    2 adjacency   {u32 node, u32 edge} [2m]   sorted per row
//    3 endpoints   {u32 lo, u32 hi} [m]        normalized, EdgeId order
//    4 probs       double [m]        edge priors p_e
//    5 cautious    uint64 [⌈n/64⌉]   class bitset, LSB-first
//    6 accept      double [n]        q_u
//    7 theta       uint32 [n]        θ_v
//    8 bf          double [n]        friend benefit B_f
//    9 bfof        double [n]        friend-of-friend benefit B_fof
//   10 q_below     double [n]        generalized q1   (flag bit 0 only)
//   11 q_above     double [n]        generalized q2   (flag bit 0 only)
//
// The file holds the instance and nothing derived from it: ScorePack::build
// walks the loaded CSR like any other instance's.  Version 1 files also
// carried pre-laid-out ScorePack slot tables (flag bit 1, sections 12–15);
// version 2 dropped them, so the loader rejects v1 files with a version
// error — regenerate them with `accu pack` or `accu synth` (same seed).
//
// Integrity: every loader check fails with a clean IoError — wrong magic /
// version / endian tag, unknown flag bits (a newer writer's file), header
// or footer or per-section CRC mismatch, and an *exact* file-size equation
// (size == footer_offset + footer_length) that catches torn tails even
// before CRCs run.  Semantic validity (CSR shape, probability ranges, the
// paper's standing assumptions) is re-checked by Graph::from_csr and the
// AccuInstance constructor — a CRC-valid file still cannot smuggle in a
// malformed instance.
//
// Durability: writers stream through util::AtomicFileWriter (temp + fsync
// + rename + dir fsync via util::IoEnv), so a crash or ENOSPC mid-pack
// never leaves a torn ".accui" behind, and the FaultyFs suite covers the
// write path.  Loading mmaps the file read-only (util::MappedFile) and
// copies every section out into the instance's own arrays.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/instance.hpp"
#include "util/atomic_file.hpp"

namespace accu {

namespace instance_format {

inline constexpr unsigned char kMagic[8] = {0xAC, 0xCF, 'A', 'C',
                                            'C',  'U',  'I', '1'};
inline constexpr std::uint32_t kVersion = 2;
inline constexpr std::uint32_t kEndianTag = 0x0A0B0C0Du;
inline constexpr std::uint64_t kSectionAlign = 64;

inline constexpr std::uint64_t kFlagGeneralized = 1ull << 0;
inline constexpr std::uint64_t kKnownFlags = kFlagGeneralized;

enum SectionId : std::uint32_t {
  kOffsets = 1,
  kAdjacency = 2,
  kEndpoints = 3,
  kProbs = 4,
  kCautious = 5,
  kAccept = 6,
  kTheta = 7,
  kFriendBenefit = 8,
  kFofBenefit = 9,
  kQBelow = 10,
  kQAbove = 11,
};

struct Header {
  unsigned char magic[8];
  std::uint32_t version;
  std::uint32_t endian;
  std::uint64_t num_nodes;
  std::uint64_t num_edges;
  std::uint64_t flags;
  std::uint64_t footer_offset;
  std::uint64_t footer_length;
  std::uint32_t section_count;
  std::uint32_t header_crc;  // CRC32 of the preceding 60 bytes
};
static_assert(sizeof(Header) == 64, "header must pack to one cache line");

struct SectionEntry {
  std::uint32_t id;
  std::uint32_t crc;  // CRC32 of the section's payload bytes (pre-padding)
  std::uint64_t offset;
  std::uint64_t length;
  std::uint64_t reserved;  // must be zero
};
static_assert(sizeof(SectionEntry) == 32, "footer entries must pack");

struct SectionLayout {
  std::uint32_t id;
  std::uint64_t offset;
  std::uint64_t length;  // payload bytes, padding excluded
};

/// The complete byte layout of a file with the given shape.  Every offset,
/// length, and the final file size is a pure function of (n, m, flags) —
/// this is what lets writers stream sequentially and lets the loader
/// cross-check the footer against first principles.  Throws
/// InvalidArgument when n/m exceed the uint32 id / 2m-slot space or flags
/// contain unknown bits.
struct FileLayout {
  std::uint64_t num_nodes = 0;
  std::uint64_t num_edges = 0;
  std::uint64_t flags = 0;
  std::vector<SectionLayout> sections;
  std::uint64_t footer_offset = 0;
  std::uint64_t footer_length = 0;
  std::uint64_t file_size = 0;

  [[nodiscard]] static FileLayout compute(std::uint64_t num_nodes,
                                          std::uint64_t num_edges,
                                          std::uint64_t flags);
};

}  // namespace instance_format

/// Streaming section writer for the binary format — the one emitter shared
/// by the in-memory serializer (write_instance_binary_file) and the
/// out-of-core generators (datasets/stream_gen.hpp), so both produce
/// byte-identical files for identical content.
///
/// Protocol: open(path, n, m, flags), then for every section of the layout
/// in order: begin_section(id), any number of write() calls totalling
/// exactly the section's length, end_section(); finally commit().  The
/// writer enforces the protocol (order, exact lengths, completeness) with
/// InvalidArgument, maintains per-section CRCs, inserts alignment padding,
/// and appends the footer at commit().  All bytes flow through
/// util::AtomicFileWriter: the target path appears only on a successful
/// commit.  Destruction or abort() before commit unlinks the temp file.
class BinaryInstanceWriter {
 public:
  BinaryInstanceWriter() = default;

  /// Computes the layout, opens the temp file and writes the header.
  void open(const std::string& path, std::uint64_t num_nodes,
            std::uint64_t num_edges, std::uint64_t flags);
  [[nodiscard]] bool is_open() const noexcept { return out_.is_open(); }
  [[nodiscard]] const instance_format::FileLayout& layout() const noexcept {
    return layout_;
  }

  /// Starts the next section; `id` must match the layout's order.
  void begin_section(std::uint32_t id);
  /// Appends payload bytes to the open section (never past its length).
  void write(const void* data, std::size_t len);
  /// Closes the open section: checks the exact length, pads to alignment.
  void end_section();

  /// Appends the footer and atomically publishes the file.
  void commit();
  /// Drops the temp file; the target is untouched.
  void abort() noexcept { out_.abort(); }

 private:
  util::AtomicFileWriter out_;
  instance_format::FileLayout layout_;
  std::vector<std::uint32_t> crcs_;
  std::size_t next_section_ = 0;
  bool in_section_ = false;
  std::uint64_t section_written_ = 0;
  std::uint32_t section_crc_ = 0;
};

/// Serializes an in-memory instance to the binary format (atomic replace).
void write_instance_binary_file(const AccuInstance& instance,
                                const std::string& path);

/// Loads a binary instance: mmaps the file, verifies header/footer/CRCs,
/// adopts the CSR arrays through Graph::from_csr and re-validates the
/// instance through its constructor.  Throws IoError on any structural or
/// integrity violation.
[[nodiscard]] AccuInstance read_instance_binary_file(const std::string& path);

/// True when `path` starts with the binary magic (first byte 0xAC — text
/// instances start with '#' or 'n').  Throws IoError when unreadable.
[[nodiscard]] bool is_binary_instance_file(const std::string& path);

/// Where an instance comes from — the one seam run_experiment, `accu
/// serve`, and the CLI share, so every consumer loads either format.
struct InstanceSource {
  enum class Format : std::uint8_t { kAuto = 0, kText = 1, kBinary = 2 };

  std::string path;
  Format format = Format::kAuto;

  /// Loads the instance; kAuto sniffs the magic byte.
  [[nodiscard]] AccuInstance load() const;
};

/// InstanceSource{path}.load() — auto-detecting convenience loader.
[[nodiscard]] AccuInstance load_instance_auto(const std::string& path);

}  // namespace accu
