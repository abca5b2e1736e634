// Tests for the binary ".accui" instance format: bit-exact round trips
// against the text format, the corruption matrix (every section, header,
// footer, torn tails), atomic-write fault injection, the out-of-core
// generator (pinned byte for byte against the in-memory writer), and format
// auto-detection.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/instance_format.hpp"
#include "core/instance_io.hpp"
#include "core/score.hpp"
#include "core/simulator.hpp"
#include "core/strategies/abm.hpp"
#include "datasets/datasets.hpp"
#include "datasets/stream_gen.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/io_env.hpp"
#include "test_paths.hpp"

namespace accu {
namespace {

using test::temp_path;

namespace fmt = instance_format;

AccuInstance small_instance(std::uint64_t seed, double q1 = 0.0,
                            double q2 = 1.0) {
  util::Rng rng(seed);
  datasets::DatasetConfig config;
  config.scale = 0.05;
  config.num_cautious = 8;
  config.cautious_below_prob = q1;
  config.cautious_above_prob = q2;
  return datasets::make_dataset("facebook", config, rng);
}

std::vector<char> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  return bytes;
}

void write_bytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

std::string text_of(const AccuInstance& instance) {
  std::stringstream buffer;
  write_instance(instance, buffer);
  return buffer.str();
}

/// Rewrites the footer CRC after a deliberate in-place footer edit, so the
/// loader reaches the check under test instead of stopping at the CRC.
void refresh_footer_crc(std::vector<char>& bytes) {
  fmt::Header h;
  std::memcpy(&h, bytes.data(), sizeof h);
  const std::size_t entries_len =
      static_cast<std::size_t>(h.footer_length) - sizeof(std::uint32_t);
  const std::uint32_t crc =
      util::crc32(bytes.data() + h.footer_offset, entries_len);
  std::memcpy(bytes.data() + h.footer_offset + entries_len, &crc,
              sizeof crc);
}

void refresh_header_crc(std::vector<char>& bytes) {
  const std::uint32_t crc = util::crc32(bytes.data(), sizeof(fmt::Header) - 4);
  std::memcpy(bytes.data() + sizeof(fmt::Header) - 4, &crc, sizeof crc);
}

TEST(InstanceFormatTest, LayoutIsPureFunctionOfShape) {
  const fmt::FileLayout layout =
      fmt::FileLayout::compute(100, 400, fmt::kFlagGeneralized);
  EXPECT_EQ(layout.sections.size(), 11u);  // 9 base + the 2 q columns
  for (const fmt::SectionLayout& s : layout.sections) {
    EXPECT_EQ(s.offset % fmt::kSectionAlign, 0u) << "section " << s.id;
  }
  EXPECT_EQ(layout.file_size, layout.footer_offset + layout.footer_length);
  // Unknown flag bits and oversize shapes are rejected up front.
  EXPECT_THROW(fmt::FileLayout::compute(10, 10, 1ull << 7), InvalidArgument);
  EXPECT_THROW(fmt::FileLayout::compute(0xFFFFFFFFull, 0, 0),
               InvalidArgument);
  EXPECT_THROW(fmt::FileLayout::compute(10, 1ull << 31, 0), InvalidArgument);
}

TEST(InstanceFormatTest, TextBinaryTextIsByteIdentical) {
  const AccuInstance original = small_instance(1);
  const std::string bin = temp_path("fmt_roundtrip.accui");
  write_instance_binary_file(original, bin);
  const AccuInstance loaded = read_instance_binary_file(bin);
  EXPECT_EQ(text_of(loaded), text_of(original));
}

TEST(InstanceFormatTest, BinaryWriteIsDeterministicAndStable) {
  const AccuInstance original = small_instance(2);
  const std::string a = temp_path("fmt_stable_a.accui");
  const std::string b = temp_path("fmt_stable_b.accui");
  write_instance_binary_file(original, a);
  // binary -> load -> binary must reproduce the same bytes (flags, layout
  // and every payload included).
  write_instance_binary_file(read_instance_binary_file(a), b);
  EXPECT_EQ(read_bytes(a), read_bytes(b));
}

TEST(InstanceFormatTest, GeneralizedModelRoundTrips) {
  const AccuInstance original = small_instance(3, 0.125, 0.875);
  ASSERT_TRUE(original.has_generalized_cautious());
  const std::string bin = temp_path("fmt_generalized.accui");
  write_instance_binary_file(original, bin);
  const AccuInstance loaded = read_instance_binary_file(bin);
  EXPECT_TRUE(loaded.has_generalized_cautious());
  EXPECT_EQ(text_of(loaded), text_of(original));
}

TEST(InstanceFormatTest, SimulationTraceIdenticalAcrossFormats) {
  const AccuInstance original = small_instance(5);
  const std::string bin = temp_path("fmt_sim.accui");
  write_instance_binary_file(original, bin);
  const AccuInstance loaded = read_instance_binary_file(bin);

  const auto run = [](const AccuInstance& instance) {
    util::Rng rng(11);
    const Realization truth = Realization::sample(instance, rng);
    AbmStrategy strategy(0.5, 0.5);
    util::Rng srng(7);
    return simulate(instance, truth, strategy, 60, srng);
  };
  const SimulationResult a = run(original);
  const SimulationResult b = run(loaded);
  EXPECT_EQ(a.total_benefit, b.total_benefit);  // bitwise, not approximate
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].target, b.trace[i].target) << "request " << i;
  }
}

TEST(InstanceFormatTest, AutoDetectionSniffsTheMagic) {
  const AccuInstance original = small_instance(6);
  const std::string text = temp_path("fmt_auto.accu");
  const std::string bin = temp_path("fmt_auto.accui");
  write_instance_file(original, text);
  write_instance_binary_file(original, bin);
  EXPECT_FALSE(is_binary_instance_file(text));
  EXPECT_TRUE(is_binary_instance_file(bin));
  EXPECT_EQ(text_of(load_instance_auto(text)), text_of(original));
  EXPECT_EQ(text_of(load_instance_auto(bin)), text_of(original));
  // Forcing the wrong format fails cleanly instead of misparsing.
  EXPECT_THROW(
      (InstanceSource{bin, InstanceSource::Format::kText}.load()), IoError);
  EXPECT_THROW(
      (InstanceSource{text, InstanceSource::Format::kBinary}.load()),
      IoError);
  EXPECT_THROW((void)is_binary_instance_file(temp_path("fmt_none")),
               IoError);
}

TEST(InstanceFormatTest, CorruptionInEverySectionIsDetected) {
  const AccuInstance original = small_instance(7, 0.25, 0.75);
  const std::string bin = temp_path("fmt_corrupt.accui");
  write_instance_binary_file(original, bin);
  const std::vector<char> pristine = read_bytes(bin);

  fmt::Header h;
  std::memcpy(&h, pristine.data(), sizeof h);
  const fmt::FileLayout layout =
      fmt::FileLayout::compute(h.num_nodes, h.num_edges, h.flags);
  ASSERT_EQ(layout.sections.size(), h.section_count);

  for (const fmt::SectionLayout& s : layout.sections) {
    ASSERT_GT(s.length, 0u) << "section " << s.id;
    std::vector<char> bytes = pristine;
    bytes[s.offset + s.length / 2] ^= 0x40;  // one bit, mid-payload
    write_bytes(bin, bytes);
    EXPECT_THROW(read_instance_binary_file(bin), IoError)
        << "bit flip in section " << s.id << " went undetected";
  }
  // The file still loads once restored — the matrix itself is sound.
  write_bytes(bin, pristine);
  EXPECT_EQ(text_of(read_instance_binary_file(bin)), text_of(original));
}

TEST(InstanceFormatTest, HeaderAndFooterCorruptionIsDetected) {
  const AccuInstance original = small_instance(8);
  const std::string bin = temp_path("fmt_header.accui");
  write_instance_binary_file(original, bin);
  const std::vector<char> pristine = read_bytes(bin);
  fmt::Header h;
  std::memcpy(&h, pristine.data(), sizeof h);

  const auto expect_rejected = [&](std::vector<char> bytes,
                                   const std::string& needle) {
    write_bytes(bin, bytes);
    try {
      (void)read_instance_binary_file(bin);
      FAIL() << "expected IoError mentioning '" << needle << "'";
    } catch (const IoError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };

  {  // wrong magic
    std::vector<char> bytes = pristine;
    bytes[0] = 'X';
    expect_rejected(bytes, "magic");
  }
  // A future version, and the previous one (v1 files carried ScorePack
  // slot tables this loader no longer reads); the CRC is made consistent
  // so the version check fires.
  for (const std::uint32_t version : {fmt::kVersion + 1, fmt::kVersion - 1}) {
    std::vector<char> bytes = pristine;
    std::memcpy(bytes.data() + 8, &version, sizeof version);
    refresh_header_crc(bytes);
    expect_rejected(bytes, "version");
  }
  {  // foreign endianness
    std::vector<char> bytes = pristine;
    const std::uint32_t swapped = 0x0D0C0B0Au;
    std::memcpy(bytes.data() + 12, &swapped, sizeof swapped);
    refresh_header_crc(bytes);
    expect_rejected(bytes, "endian");
  }
  {  // unknown flag bit: a newer writer's file must not half-load
    std::vector<char> bytes = pristine;
    std::uint64_t flags = h.flags | (1ull << 5);
    std::memcpy(bytes.data() + 32, &flags, sizeof flags);
    refresh_header_crc(bytes);
    expect_rejected(bytes, "flag");
  }
  {  // node count past the uint32 id space
    std::vector<char> bytes = pristine;
    const std::uint64_t n = 0xFFFFFFFFull;
    std::memcpy(bytes.data() + 16, &n, sizeof n);
    refresh_header_crc(bytes);
    expect_rejected(bytes, "exceeds");
  }
  {  // edge count past the 2m uint32 slot space
    std::vector<char> bytes = pristine;
    const std::uint64_t m = 1ull << 31;
    std::memcpy(bytes.data() + 24, &m, sizeof m);
    refresh_header_crc(bytes);
    expect_rejected(bytes, "exceeds");
  }
  {  // plain header bit rot
    std::vector<char> bytes = pristine;
    bytes[20] ^= 0x01;  // inside num_nodes
    expect_rejected(bytes, "CRC");
  }
  {  // footer entry bit rot
    std::vector<char> bytes = pristine;
    bytes[static_cast<std::size_t>(h.footer_offset) + 8] ^= 0x01;
    expect_rejected(bytes, "footer");
  }
  {  // reserved footer field must stay zero
    std::vector<char> bytes = pristine;
    bytes[static_cast<std::size_t>(h.footer_offset) + 24] = 1;
    refresh_footer_crc(bytes);
    expect_rejected(bytes, "footer entry");
  }
  {  // misaligned/shifted section offset
    std::vector<char> bytes = pristine;
    std::uint64_t offset;
    std::memcpy(&offset, bytes.data() + h.footer_offset + 8, sizeof offset);
    offset += fmt::kSectionAlign;
    std::memcpy(bytes.data() + h.footer_offset + 8, &offset, sizeof offset);
    refresh_footer_crc(bytes);
    expect_rejected(bytes, "footer entry");
  }
}

TEST(InstanceFormatTest, TornAndOversizedFilesAreDetected) {
  const AccuInstance original = small_instance(9);
  const std::string bin = temp_path("fmt_torn.accui");
  write_instance_binary_file(original, bin);
  const std::vector<char> pristine = read_bytes(bin);

  const auto expect_torn = [&](std::size_t keep) {
    std::vector<char> bytes(pristine.begin(),
                            pristine.begin() + static_cast<long>(keep));
    write_bytes(bin, bytes);
    EXPECT_THROW(read_instance_binary_file(bin), IoError)
        << "torn at " << keep << " of " << pristine.size();
  };
  expect_torn(pristine.size() - 1);  // one byte short of the footer
  expect_torn(pristine.size() / 2);  // mid-section
  expect_torn(sizeof(fmt::Header));  // header only
  expect_torn(10);                   // shorter than the header

  std::vector<char> grown = pristine;
  grown.push_back('\0');
  write_bytes(bin, grown);
  EXPECT_THROW(read_instance_binary_file(bin), IoError);
}

TEST(InstanceFormatTest, WriterEnforcesTheSectionProtocol) {
  const std::string path = temp_path("fmt_protocol.accui");
  {  // wrong section order
    BinaryInstanceWriter w;
    w.open(path, 4, 0, 0);
    EXPECT_THROW(w.begin_section(fmt::kAdjacency), InvalidArgument);
    w.abort();
  }
  {  // overlong section payload
    BinaryInstanceWriter w;
    w.open(path, 4, 0, 0);
    w.begin_section(fmt::kOffsets);
    std::vector<std::uint64_t> offsets(6, 0);  // one u64 too many
    EXPECT_THROW(w.write(offsets.data(), offsets.size() * 8),
                 InvalidArgument);
    w.abort();
  }
  {  // short section payload
    BinaryInstanceWriter w;
    w.open(path, 4, 0, 0);
    w.begin_section(fmt::kOffsets);
    const std::uint64_t zero = 0;
    w.write(&zero, sizeof zero);
    EXPECT_THROW(w.end_section(), InvalidArgument);
    w.abort();
  }
  {  // commit before all sections are written
    BinaryInstanceWriter w;
    w.open(path, 4, 0, 0);
    EXPECT_THROW(w.commit(), InvalidArgument);
    w.abort();
  }
  // No torn file ever reached the target path.
  EXPECT_THROW(read_instance_binary_file(path), IoError);
}

TEST(InstanceFormatTest, StreamGenIsIndependentOfBatchSize) {
  datasets::StreamGenConfig config;
  config.num_nodes = 4000;
  config.avg_degree = 12.0;
  config.num_cautious = 40;
  config.seed = 13;
  const std::string a = temp_path("fmt_gen_a.accui");
  const std::string b = temp_path("fmt_gen_b.accui");
  config.batch_bytes = 1;  // floored to 64 KiB — many scatter passes
  const datasets::StreamGenStats stats_a =
      datasets::generate_instance_stream(config, a);
  config.batch_bytes = 1ull << 30;  // everything in one pass
  const datasets::StreamGenStats stats_b =
      datasets::generate_instance_stream(config, b);
  EXPECT_GT(stats_a.spool_scans, stats_b.spool_scans);
  EXPECT_EQ(read_bytes(a), read_bytes(b));
}

TEST(InstanceFormatTest, StreamGenOutputIsAValidAdoptableInstance) {
  datasets::StreamGenConfig config;
  config.num_nodes = 3000;
  config.avg_degree = 10.0;
  config.num_cautious = 25;
  config.seed = 17;
  const std::string path = temp_path("fmt_gen_valid.accui");
  const datasets::StreamGenStats stats =
      datasets::generate_instance_stream(config, path);
  EXPECT_EQ(stats.num_nodes, config.num_nodes);
  EXPECT_EQ(stats.num_cautious, config.num_cautious);

  // The loader re-runs Graph::from_csr and the instance constructor, so a
  // successful load certifies the streamed CSR and the paper invariants.
  const AccuInstance instance = read_instance_binary_file(path);
  EXPECT_EQ(instance.num_nodes(), config.num_nodes);
  EXPECT_EQ(instance.num_cautious(), config.num_cautious);

  // The generator and the in-memory serializer emit the same bytes for the
  // same instance: repacking the loaded file reproduces it exactly.
  const std::string repacked = temp_path("fmt_gen_repacked.accui");
  write_instance_binary_file(instance, repacked);
  EXPECT_EQ(read_bytes(repacked), read_bytes(path));

  // And the instance actually drives an attack.
  util::Rng rng(1);
  const Realization truth = Realization::sample(instance, rng);
  AbmStrategy strategy(0.5, 0.5);
  util::Rng srng(2);
  const SimulationResult result = simulate(instance, truth, strategy, 30, srng);
  EXPECT_EQ(result.trace.size(), 30u);
}

TEST(InstanceFormatTest, StreamGenWithoutPackTables) {
  datasets::StreamGenConfig config;
  config.num_nodes = 1000;
  config.num_cautious = 10;
  const std::string path = temp_path("fmt_gen_nopack.accui");
  (void)datasets::generate_instance_stream(config, path);
  const AccuInstance instance = read_instance_binary_file(path);
  ScorePack pack;
  pack.build(instance);
  EXPECT_EQ(pack.num_slots(), 2u * instance.graph().num_edges());
}

TEST(InstanceFormatTest, StreamGenRejectsBadConfigs) {
  datasets::StreamGenConfig config;
  config.alpha = 1.0;  // tail exponent out of (2, 8]
  EXPECT_THROW(config.validate(), InvalidArgument);
  config = {};
  config.num_nodes = 0;
  EXPECT_THROW(config.validate(), InvalidArgument);
  config = {};
  config.cautious_degree_min = 50;
  config.cautious_degree_max = 10;
  EXPECT_THROW(config.validate(), InvalidArgument);
}

#ifdef ACCU_HAVE_POSIX_IO

TEST(InstanceFormatTest, EnospcDuringPackLeavesThePreviousFileIntact) {
  const std::string path = temp_path("fmt_enospc.accui");
  const AccuInstance first = small_instance(20);
  write_instance_binary_file(first, path);
  const std::vector<char> before = read_bytes(path);
  {
    util::FaultyFs faulty;
    util::ScopedIoEnv scoped(faulty);
    faulty.disk_budget(200);  // the replacement tears off mid-section
    EXPECT_THROW(write_instance_binary_file(small_instance(21), path),
                 DiskFullError);
    faulty.materialize_crash_state();
  }
  EXPECT_EQ(read_bytes(path), before);
  EXPECT_EQ(text_of(read_instance_binary_file(path)), text_of(first));
}

TEST(InstanceFormatTest, FsyncFailureDuringPackSurfacesAsSyncLost) {
  const std::string path = temp_path("fmt_sync.accui");
  const AccuInstance first = small_instance(22);
  write_instance_binary_file(first, path);
  const std::vector<char> before = read_bytes(path);
  {
    util::FaultyFs faulty;
    util::ScopedIoEnv scoped(faulty);
    faulty.fail_fsync(faulty.sync_count() + 1);
    EXPECT_THROW(write_instance_binary_file(small_instance(23), path),
                 SyncFailedError);
    faulty.materialize_crash_state();
  }
  EXPECT_EQ(read_bytes(path), before);
}

TEST(InstanceFormatTest, EnospcDuringStreamGenLeavesNoTarget) {
  const std::string path = temp_path("fmt_gen_enospc.accui");
  datasets::StreamGenConfig config;
  config.num_nodes = 2000;
  config.num_cautious = 10;
  util::FaultyFs faulty;
  util::ScopedIoEnv scoped(faulty);
  faulty.disk_budget(4096);  // enough for the spool to start, not finish
  EXPECT_THROW(datasets::generate_instance_stream(config, path),
               DiskFullError);
  faulty.materialize_crash_state();
  EXPECT_FALSE(std::ifstream(path, std::ios::binary).good());
}

#endif  // ACCU_HAVE_POSIX_IO

}  // namespace
}  // namespace accu
