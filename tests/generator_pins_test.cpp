// Byte-level pins of the generators whose edges reach the builder without
// a duplicate-set probe (Erdős–Rényi, Barabási–Albert, Holme–Kim),
// including Holme–Kim's smallest legal sizes.  Kept apart from
// generators_test.cpp so that file's parameterized test names, which embed
// the addresses of its string literals, stay put.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>

#include "graph/generators.hpp"
#include "util/crc32.hpp"

namespace accu::graph {
namespace {

// Each pin holds the edge count, the CRC32 of the four raw CSR arrays (row
// order, neighbor order and edge ids all count) and the RNG's next output
// (so the number of draws is pinned too).  They were recorded while these
// generators still probed the builder's duplicate set for every edge; any
// change to their output fails here.
struct CsrPin {
  std::uint32_t edges;
  std::uint32_t crc;
  std::uint64_t rng_next;
};

template <typename T>
std::uint32_t crc_of(std::span<const T> values, std::uint32_t crc) {
  return util::crc32(values.data(), values.size_bytes(), crc);
}

CsrPin pin_of(const GraphBuilder& builder, util::Rng& rng) {
  const Graph g = builder.build();
  std::uint32_t crc = crc_of(g.raw_offsets(), 0);
  crc = crc_of(g.raw_adjacency(), crc);
  crc = crc_of(g.raw_probs(), crc);
  crc = crc_of(g.raw_endpoints(), crc);
  return {g.num_edges(), crc, rng()};
}

void expect_pin(const CsrPin& got, const CsrPin& want) {
  EXPECT_EQ(got.edges, want.edges);
  EXPECT_EQ(got.crc, want.crc);
  EXPECT_EQ(got.rng_next, want.rng_next);
}

TEST(GeneratorsTest, ErdosRenyiAndBarabasiAlbertPinned) {
  struct ErCase {
    NodeId n;
    double p;
    std::uint64_t seed;
    CsrPin pin;
  };
  const ErCase er_cases[] = {
      {300, 0.05, 1, {2278, 0x5EC8EFD6, 392503853208100640ULL}},
      {60, 1.0, 2, {1770, 0xD7FAD5EC, 1884871951439679575ULL}},
      {2, 0.5, 3, {1, 0xC3238A0F, 4026230140863905105ULL}},
      {500, 0.002, 4, {237, 0x2CA97CCA, 14601989516039206868ULL}},
  };
  for (const ErCase& c : er_cases) {
    SCOPED_TRACE(testing::Message() << "erdos_renyi n=" << c.n);
    util::Rng rng(c.seed);
    const GraphBuilder b = erdos_renyi(c.n, c.p, rng);
    expect_pin(pin_of(b, rng), c.pin);
  }
  struct BaCase {
    NodeId n;
    std::uint32_t m;
    std::uint64_t seed;
    CsrPin pin;
  };
  const BaCase ba_cases[] = {
      {4, 3, 1, {3, 0xA1362E5B, 12966619160104079557ULL}},
      {500, 3, 2, {1491, 0x1ADA6D1E, 10621798593935559027ULL}},
      {300, 1, 3, {299, 0xB647CA1A, 11735602521076951687ULL}},
      {200, 10, 4, {1900, 0x7A0FD73B, 13735547432175560666ULL}},
  };
  for (const BaCase& c : ba_cases) {
    SCOPED_TRACE(testing::Message() << "barabasi_albert n=" << c.n);
    util::Rng rng(c.seed);
    const GraphBuilder b = barabasi_albert(c.n, c.m, rng);
    expect_pin(pin_of(b, rng), c.pin);
  }
}

TEST(GeneratorsTest, HolmeKimEdgeCasesPinned) {
  // n = m+1 is the seed star alone; n = m+2 makes the one arriving node pick
  // m of the m+1 earlier nodes, the tightest case for the attempt limit;
  // triad_prob 0 and 1 pin pure preferential attachment and the triad walk
  // on every step after the first link.
  struct HkCase {
    NodeId n;
    std::uint32_t m;
    double triad_prob;
    std::uint64_t seed;
    CsrPin pin;
  };
  const HkCase cases[] = {
      {2, 1, 0.5, 1, {1, 0xC3238A0F, 12966619160104079557ULL}},
      {23, 22, 0.6, 1, {22, 0xBABC44A2, 12966619160104079557ULL}},
      {3, 1, 1.0, 2, {2, 0x24226727, 13383431742290777482ULL}},
      {5, 3, 0.0, 3, {6, 0xC62E7F42, 3599027322300720596ULL}},
      {5, 3, 1.0, 3, {6, 0x7FA9B8EE, 2131428649777623238ULL}},
      {24, 22, 0.0, 4, {44, 0x6C56AFBB, 9431987197223645976ULL}},
      {24, 22, 0.6, 4, {44, 0xC17AD828, 17112185744624438588ULL}},
      {24, 22, 1.0, 4, {44, 0x90E5B6B8, 2528651835554382983ULL}},
      {400, 5, 0.0, 5, {1975, 0x2B598131, 4817852497988625243ULL}},
      {400, 5, 1.0, 5, {1975, 0x24230588, 15553964204934262939ULL}},
      {1000, 22, 0.35, 6, {21516, 0x868226A4, 15597163494857380136ULL}},
  };
  for (const HkCase& c : cases) {
    SCOPED_TRACE(testing::Message() << "holme_kim n=" << c.n << " m=" << c.m
                                    << " triad=" << c.triad_prob);
    util::Rng rng(c.seed);
    const GraphBuilder b = holme_kim(c.n, c.m, c.triad_prob, rng);
    expect_pin(pin_of(b, rng), c.pin);
  }
}

}  // namespace
}  // namespace accu::graph
