#include "util/crc32.hpp"

#include <array>

namespace accu::util {

namespace {

// Slicing-by-8: table k maps a byte to its CRC contribution k bytes ahead
// of the register, so eight table lookups consume eight input bytes per
// step.  Table 0 is the classic byte-at-a-time table.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Tables make_crc32_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

constexpr Tables kTables = make_crc32_tables();

/// Four bytes as a little-endian word, whatever the host's byte order.
std::uint32_t load_le32(const unsigned char* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len,
                    std::uint32_t crc) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t c = crc ^ 0xffffffffu;
  for (; len >= 8; bytes += 8, len -= 8) {
    const std::uint32_t lo = c ^ load_le32(bytes);
    const std::uint32_t hi = load_le32(bytes + 4);
    c = kTables[7][lo & 0xffu] ^ kTables[6][(lo >> 8) & 0xffu] ^
        kTables[5][(lo >> 16) & 0xffu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xffu] ^ kTables[2][(hi >> 8) & 0xffu] ^
        kTables[1][(hi >> 16) & 0xffu] ^ kTables[0][hi >> 24];
  }
  for (std::size_t i = 0; i < len; ++i) {
    c = kTables[0][(c ^ bytes[i]) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

}  // namespace accu::util
