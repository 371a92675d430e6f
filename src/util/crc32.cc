#include "src/util/crc32.h"

#include <array>

namespace rvm {
namespace {

constexpr uint32_t kPolynomial = 0xEDB88320u;  // reflected IEEE

// Slicing-by-8 tables: kTables[0] is the classic bytewise table;
// kTables[k][b] is the CRC contribution of byte b followed by k zero bytes,
// so eight table lookups advance the state over eight input bytes at once.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables MakeTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kPolynomial : 0u);
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr Tables kTables = MakeTables();

}  // namespace

uint32_t Crc32Init() { return 0xFFFFFFFFu; }

uint32_t Crc32Update(uint32_t state, std::span<const uint8_t> data) {
  const uint8_t* p = data.data();
  size_t n = data.size();
  // The byte assembly is endian-neutral; compilers fold it into one load.
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t low = state ^ (static_cast<uint32_t>(p[0]) |
                                  static_cast<uint32_t>(p[1]) << 8 |
                                  static_cast<uint32_t>(p[2]) << 16 |
                                  static_cast<uint32_t>(p[3]) << 24);
    state = kTables[7][low & 0xFFu] ^ kTables[6][(low >> 8) & 0xFFu] ^
            kTables[5][(low >> 16) & 0xFFu] ^ kTables[4][low >> 24] ^
            kTables[3][p[4]] ^ kTables[2][p[5]] ^ kTables[1][p[6]] ^
            kTables[0][p[7]];
  }
  for (; n > 0; ++p, --n) {
    state = (state >> 8) ^ kTables[0][(state ^ *p) & 0xFFu];
  }
  return state;
}

uint32_t Crc32Finish(uint32_t state) { return state ^ 0xFFFFFFFFu; }

uint32_t Crc32(std::span<const uint8_t> data) {
  return Crc32Finish(Crc32Update(Crc32Init(), data));
}

}  // namespace rvm
