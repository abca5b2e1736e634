#include "core/instance_format.hpp"

#include <cstring>
#include <fstream>
#include <utility>

#include "core/instance_io.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/mmap_file.hpp"

namespace accu {

namespace instance_format {

namespace {

constexpr std::uint64_t align_up(std::uint64_t x) noexcept {
  return (x + (kSectionAlign - 1)) & ~(kSectionAlign - 1);
}

}  // namespace

FileLayout FileLayout::compute(std::uint64_t num_nodes,
                               std::uint64_t num_edges, std::uint64_t flags) {
  if ((flags & ~kKnownFlags) != 0) {
    throw InvalidArgument("instance format: unknown flag bits");
  }
  if (num_nodes >= graph::kInvalidNode) {
    throw InvalidArgument("instance format: node count " +
                          std::to_string(num_nodes) +
                          " exceeds the uint32 id space");
  }
  if (num_edges >= (1ull << 31)) {
    throw InvalidArgument("instance format: edge count " +
                          std::to_string(num_edges) +
                          " exceeds the 2m uint32 slot space");
  }
  FileLayout layout;
  layout.num_nodes = num_nodes;
  layout.num_edges = num_edges;
  layout.flags = flags;
  const std::uint64_t slots = 2 * num_edges;
  const std::uint64_t words = (num_nodes + 63) / 64;

  std::uint64_t pos = sizeof(Header);
  const auto add = [&](std::uint32_t id, std::uint64_t bytes) {
    layout.sections.push_back({id, pos, bytes});
    pos = align_up(pos + bytes);
  };
  add(kOffsets, (num_nodes + 1) * 8);
  add(kAdjacency, slots * 8);
  add(kEndpoints, num_edges * 8);
  add(kProbs, num_edges * 8);
  add(kCautious, words * 8);
  add(kAccept, num_nodes * 8);
  add(kTheta, num_nodes * 4);
  add(kFriendBenefit, num_nodes * 8);
  add(kFofBenefit, num_nodes * 8);
  if ((flags & kFlagGeneralized) != 0) {
    add(kQBelow, num_nodes * 8);
    add(kQAbove, num_nodes * 8);
  }
  layout.footer_offset = pos;
  layout.footer_length = layout.sections.size() * sizeof(SectionEntry) + 4;
  layout.file_size = layout.footer_offset + layout.footer_length;
  return layout;
}

}  // namespace instance_format

// ---------------------------------------------------------------------------
// BinaryInstanceWriter
// ---------------------------------------------------------------------------

namespace fmt = instance_format;

void BinaryInstanceWriter::open(const std::string& path,
                                std::uint64_t num_nodes,
                                std::uint64_t num_edges, std::uint64_t flags) {
  layout_ = fmt::FileLayout::compute(num_nodes, num_edges, flags);
  crcs_.assign(layout_.sections.size(), 0);
  next_section_ = 0;
  in_section_ = false;
  out_.open(path);
  fmt::Header h{};
  std::memcpy(h.magic, fmt::kMagic, sizeof h.magic);
  h.version = fmt::kVersion;
  h.endian = fmt::kEndianTag;
  h.num_nodes = num_nodes;
  h.num_edges = num_edges;
  h.flags = flags;
  h.footer_offset = layout_.footer_offset;
  h.footer_length = layout_.footer_length;
  h.section_count = static_cast<std::uint32_t>(layout_.sections.size());
  h.header_crc = util::crc32(&h, sizeof(fmt::Header) - 4);
  out_.append(&h, sizeof h);
}

void BinaryInstanceWriter::begin_section(std::uint32_t id) {
  if (in_section_) {
    throw InvalidArgument("BinaryInstanceWriter: previous section still open");
  }
  if (next_section_ >= layout_.sections.size()) {
    throw InvalidArgument("BinaryInstanceWriter: all sections already written");
  }
  const std::uint32_t expected = layout_.sections[next_section_].id;
  if (id != expected) {
    throw InvalidArgument("BinaryInstanceWriter: section " +
                          std::to_string(id) + " out of order (expected " +
                          std::to_string(expected) + ")");
  }
  in_section_ = true;
  section_written_ = 0;
  section_crc_ = 0;
}

void BinaryInstanceWriter::write(const void* data, std::size_t len) {
  if (!in_section_) {
    throw InvalidArgument("BinaryInstanceWriter: write outside a section");
  }
  const fmt::SectionLayout& s = layout_.sections[next_section_];
  if (section_written_ + len > s.length) {
    throw InvalidArgument("BinaryInstanceWriter: section " +
                          std::to_string(s.id) + " overflow (expected " +
                          std::to_string(s.length) + " bytes)");
  }
  out_.append(data, len);
  section_crc_ = util::crc32(data, len, section_crc_);
  section_written_ += len;
}

void BinaryInstanceWriter::end_section() {
  if (!in_section_) {
    throw InvalidArgument("BinaryInstanceWriter: no section open");
  }
  const fmt::SectionLayout& s = layout_.sections[next_section_];
  if (section_written_ != s.length) {
    throw InvalidArgument(
        "BinaryInstanceWriter: section " + std::to_string(s.id) +
        " length mismatch (expected " + std::to_string(s.length) +
        " bytes, wrote " + std::to_string(section_written_) + ")");
  }
  crcs_[next_section_] = section_crc_;
  const std::uint64_t end = s.offset + s.length;
  const std::uint64_t next = next_section_ + 1 < layout_.sections.size()
                                 ? layout_.sections[next_section_ + 1].offset
                                 : layout_.footer_offset;
  static constexpr char kZeros[fmt::kSectionAlign] = {};
  out_.append(kZeros, static_cast<std::size_t>(next - end));
  in_section_ = false;
  ++next_section_;
}

void BinaryInstanceWriter::commit() {
  if (in_section_) {
    throw InvalidArgument("BinaryInstanceWriter: commit with a section open");
  }
  if (next_section_ != layout_.sections.size()) {
    throw InvalidArgument("BinaryInstanceWriter: commit after " +
                          std::to_string(next_section_) + " of " +
                          std::to_string(layout_.sections.size()) +
                          " sections");
  }
  std::vector<fmt::SectionEntry> entries(layout_.sections.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const fmt::SectionLayout& s = layout_.sections[i];
    entries[i] = {s.id, crcs_[i], s.offset, s.length, 0};
  }
  const std::size_t entry_bytes = entries.size() * sizeof(fmt::SectionEntry);
  out_.append(entries.data(), entry_bytes);
  const std::uint32_t footer_crc = util::crc32(entries.data(), entry_bytes);
  out_.append(&footer_crc, sizeof footer_crc);
  ACCU_ASSERT(out_.bytes_written() == layout_.file_size);
  out_.commit();
}

// ---------------------------------------------------------------------------
// In-memory serializer
// ---------------------------------------------------------------------------

static_assert(sizeof(graph::Neighbor) == 8, "adjacency entries must pack");
static_assert(sizeof(graph::EdgeEndpoints) == 8, "endpoints must pack");

void write_instance_binary_file(const AccuInstance& instance,
                                const std::string& path) {
  const Graph& g = instance.graph();
  const std::uint64_t n = g.num_nodes();
  const std::uint64_t m = g.num_edges();
  const std::uint64_t flags =
      instance.has_generalized_cautious() ? fmt::kFlagGeneralized : 0;

  // The Graph invariants the loader re-validates (no duplicate edges, no
  // self-loops, normalized endpoints) hold here by construction: every
  // Graph comes out of GraphBuilder or Graph::from_csr, both of which
  // enforce them.
  BinaryInstanceWriter w;
  w.open(path, n, m, flags);
  const auto section = [&](std::uint32_t id, const void* data,
                           std::size_t bytes) {
    w.begin_section(id);
    if (bytes > 0) w.write(data, bytes);
    w.end_section();
  };

  {
    // size_t offsets serialize as uint64 regardless of platform width.
    std::vector<std::uint64_t> off(g.raw_offsets().begin(),
                                   g.raw_offsets().end());
    section(fmt::kOffsets, off.data(), off.size() * 8);
  }
  section(fmt::kAdjacency, g.raw_adjacency().data(),
          g.raw_adjacency().size() * 8);
  section(fmt::kEndpoints, g.raw_endpoints().data(), m * 8);
  section(fmt::kProbs, g.raw_probs().data(), m * 8);
  {
    std::vector<std::uint64_t> bits((n + 63) / 64, 0);
    for (NodeId u = 0; u < n; ++u) {
      if (instance.is_cautious(u)) bits[u >> 6] |= 1ull << (u & 63);
    }
    section(fmt::kCautious, bits.data(), bits.size() * 8);
  }
  std::vector<double> col(n);
  for (NodeId u = 0; u < n; ++u) col[u] = instance.accept_prob(u);
  section(fmt::kAccept, col.data(), n * 8);
  {
    std::vector<std::uint32_t> theta(n);
    for (NodeId u = 0; u < n; ++u) theta[u] = instance.threshold(u);
    section(fmt::kTheta, theta.data(), n * 4);
  }
  const BenefitModel& benefits = instance.benefits();
  for (NodeId u = 0; u < n; ++u) col[u] = benefits.friend_benefit(u);
  section(fmt::kFriendBenefit, col.data(), n * 8);
  for (NodeId u = 0; u < n; ++u) col[u] = benefits.fof_benefit(u);
  section(fmt::kFofBenefit, col.data(), n * 8);
  if ((flags & fmt::kFlagGeneralized) != 0) {
    // Same normalization as the text writer: reckless rows carry the
    // deterministic defaults, so text -> binary -> text round-trips
    // byte-identically.
    for (NodeId u = 0; u < n; ++u) {
      col[u] =
          instance.is_cautious(u) ? instance.cautious_accept_prob(u, false)
                                  : 0.0;
    }
    section(fmt::kQBelow, col.data(), n * 8);
    for (NodeId u = 0; u < n; ++u) {
      col[u] = instance.is_cautious(u)
                   ? instance.cautious_accept_prob(u, true)
                   : 1.0;
    }
    section(fmt::kQAbove, col.data(), n * 8);
  }
  w.commit();
}

// ---------------------------------------------------------------------------
// Loader
// ---------------------------------------------------------------------------

namespace {

[[noreturn]] void corrupt(const std::string& path, const std::string& what) {
  throw IoError("binary accu-instance " + path + ": " + what);
}

}  // namespace

AccuInstance read_instance_binary_file(const std::string& path) {
  const std::unique_ptr<const util::MappedFile> file =
      util::MappedFile::open(path);
  const std::byte* base = file->data();
  const std::uint64_t size = file->size();
  if (size < sizeof(fmt::Header)) {
    corrupt(path, "file shorter than the 64-byte header");
  }
  fmt::Header h;
  std::memcpy(&h, base, sizeof h);
  if (std::memcmp(h.magic, fmt::kMagic, sizeof h.magic) != 0) {
    corrupt(path, "bad magic (not a binary accu-instance)");
  }
  if (h.endian != fmt::kEndianTag) {
    corrupt(path, "endian tag mismatch (file written on a foreign-endian "
                  "machine)");
  }
  if (h.version != fmt::kVersion) {
    corrupt(path, "unsupported format version " + std::to_string(h.version));
  }
  if (util::crc32(&h, sizeof(fmt::Header) - 4) != h.header_crc) {
    corrupt(path, "header CRC mismatch");
  }
  fmt::FileLayout layout;
  try {
    // Rejects unknown flag bits and node/edge counts past the id space.
    layout = fmt::FileLayout::compute(h.num_nodes, h.num_edges, h.flags);
  } catch (const InvalidArgument& e) {
    corrupt(path, e.what());
  }
  if (h.footer_offset != layout.footer_offset ||
      h.footer_length != layout.footer_length ||
      h.section_count != layout.sections.size()) {
    corrupt(path, "header geometry disagrees with (n, m, flags)");
  }
  if (size != layout.file_size) {
    corrupt(path, "truncated or oversized file: expected " +
                      std::to_string(layout.file_size) + " bytes, got " +
                      std::to_string(size));
  }

  const std::size_t count = layout.sections.size();
  std::vector<fmt::SectionEntry> entries(count);
  const std::size_t entry_bytes = count * sizeof(fmt::SectionEntry);
  std::memcpy(entries.data(), base + layout.footer_offset, entry_bytes);
  std::uint32_t footer_crc = 0;
  std::memcpy(&footer_crc, base + layout.footer_offset + entry_bytes, 4);
  if (util::crc32(entries.data(), entry_bytes) != footer_crc) {
    corrupt(path, "footer CRC mismatch");
  }
  for (std::size_t i = 0; i < count; ++i) {
    const fmt::SectionLayout& want = layout.sections[i];
    const fmt::SectionEntry& got = entries[i];
    if (got.id != want.id || got.offset != want.offset ||
        got.length != want.length || got.reserved != 0) {
      corrupt(path, "footer entry " + std::to_string(i) +
                        " disagrees with the layout (section " +
                        std::to_string(want.id) + ")");
    }
    if (util::crc32(base + got.offset, static_cast<std::size_t>(got.length)) !=
        got.crc) {
      corrupt(path, "section " + std::to_string(want.id) + " CRC mismatch");
    }
  }
  const auto sec = [&](std::uint32_t id) -> const std::byte* {
    for (const fmt::SectionLayout& s : layout.sections) {
      if (s.id == id) return base + s.offset;
    }
    corrupt(path, "missing section " + std::to_string(id));
  };

  const auto n = static_cast<NodeId>(h.num_nodes);
  const auto m = static_cast<std::size_t>(h.num_edges);
  const std::size_t slots = 2 * m;

  // memcpy out of the mapping into typed vectors — the aliasing-safe way
  // to read raw file bytes.
  std::vector<std::size_t> offsets(static_cast<std::size_t>(n) + 1);
  {
    std::vector<std::uint64_t> raw(offsets.size());
    std::memcpy(raw.data(), sec(fmt::kOffsets), raw.size() * 8);
    for (std::size_t i = 0; i < raw.size(); ++i) {
      if (raw[i] > slots) corrupt(path, "row offset out of range");
      offsets[i] = static_cast<std::size_t>(raw[i]);
    }
  }
  std::vector<graph::Neighbor> adjacency(slots);
  if (slots > 0) std::memcpy(adjacency.data(), sec(fmt::kAdjacency), slots * 8);
  std::vector<graph::EdgeEndpoints> endpoints(m);
  if (m > 0) std::memcpy(endpoints.data(), sec(fmt::kEndpoints), m * 8);
  std::vector<double> probs(m);
  if (m > 0) std::memcpy(probs.data(), sec(fmt::kProbs), m * 8);

  std::vector<UserClass> classes(n, UserClass::kReckless);
  {
    std::vector<std::uint64_t> bits((static_cast<std::size_t>(n) + 63) / 64);
    if (!bits.empty()) {
      std::memcpy(bits.data(), sec(fmt::kCautious), bits.size() * 8);
    }
    for (NodeId u = 0; u < n; ++u) {
      if ((bits[u >> 6] >> (u & 63)) & 1u) classes[u] = UserClass::kCautious;
    }
  }
  std::vector<double> accept(n), bf(n), bfof(n);
  std::vector<std::uint32_t> theta(n);
  if (n > 0) {
    std::memcpy(accept.data(), sec(fmt::kAccept), n * 8ull);
    std::memcpy(theta.data(), sec(fmt::kTheta), n * 4ull);
    std::memcpy(bf.data(), sec(fmt::kFriendBenefit), n * 8ull);
    std::memcpy(bfof.data(), sec(fmt::kFofBenefit), n * 8ull);
  }
  GeneralizedCautiousParams cautious{std::vector<double>(n, 0.0),
                                     std::vector<double>(n, 1.0)};
  if ((h.flags & fmt::kFlagGeneralized) != 0 && n > 0) {
    std::memcpy(cautious.below.data(), sec(fmt::kQBelow), n * 8ull);
    std::memcpy(cautious.above.data(), sec(fmt::kQAbove), n * 8ull);
  }

  try {
    Graph g = Graph::from_csr(n, std::move(offsets), std::move(adjacency),
                              std::move(probs), std::move(endpoints));
    return AccuInstance(std::move(g), std::move(classes), std::move(accept),
                        std::move(theta),
                        BenefitModel(std::move(bf), std::move(bfof)),
                        std::move(cautious));
  } catch (const InvalidArgument& e) {
    corrupt(path, std::string("CRC-valid but semantically invalid: ") +
                      e.what());
  }
}

// ---------------------------------------------------------------------------
// Auto-detection
// ---------------------------------------------------------------------------

bool is_binary_instance_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw IoError("cannot open for reading: " + path);
  char first = 0;
  if (!is.get(first)) return false;  // empty file: not binary (text reader
                                     // reports "empty input")
  return static_cast<unsigned char>(first) == fmt::kMagic[0];
}

AccuInstance load_instance_auto(const std::string& path) {
  return is_binary_instance_file(path) ? read_instance_binary_file(path)
                                       : read_instance_file(path);
}

}  // namespace accu
