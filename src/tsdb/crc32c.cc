#include "src/tsdb/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace fbdetect {
namespace {

struct Crc32cTable {
  std::array<uint32_t, 256> entries{};
  constexpr Crc32cTable() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int k = 0; k < 8; ++k) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0u);
      }
      entries[i] = crc;
    }
  }
};
constexpr Crc32cTable kCrcTable;

uint32_t Crc32cTableLoop(const uint8_t* data, size_t size, uint32_t seed) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < size; ++i) {
    crc = (crc >> 8) ^ kCrcTable.entries[(crc ^ data[i]) & 0xff];
  }
  return ~crc;
}

bool RunsEverywhere() { return true; }

#if defined(__x86_64__)
// The instruction folds its operand's bytes in memory order with the same
// reflected polynomial as the table, so a little-endian 8-byte load is eight
// table steps.
[[gnu::target("sse4.2")]] uint32_t Crc32cSse42(const uint8_t* data, size_t size,
                                              uint32_t seed) {
  uint64_t crc = ~seed;
  for (; size >= 8; data += 8, size -= 8) {
    uint64_t word = 0;
    std::memcpy(&word, data, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; size > 0; ++data, --size) {
    crc32 = _mm_crc32_u8(crc32, *data);
  }
  return ~crc32;
}

bool RunsSse42() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}
#endif

constexpr crc32c_internal::Entry kEntries[] = {
    {"table", &RunsEverywhere, &Crc32cTableLoop},
#if defined(__x86_64__)
    {"sse4.2", &RunsSse42, &Crc32cSse42},
#endif
};

}  // namespace

namespace crc32c_internal {

std::span<const Entry> CompiledEntries() { return kEntries; }

}  // namespace crc32c_internal

uint32_t Crc32c(const uint8_t* data, size_t size, uint32_t seed) {
  // The last entry this CPU runs, picked once per process.
  static const auto crc = [] {
    auto picked = kEntries[0].crc;
    for (const crc32c_internal::Entry& entry : kEntries) {
      if (entry.cpu_runs()) {
        picked = entry.crc;
      }
    }
    return picked;
  }();
  return crc(data, size, seed);
}

}  // namespace fbdetect
