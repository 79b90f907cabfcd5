// CRC32C (Castagnoli), the checksum that frames every WAL group and chunk
// record of the durable tier (DESIGN.md §15).
//
// Two compiled entries return the same value for every input and seed: a
// portable table loop that reads one byte per step, and, on x86-64, an
// SSE4.2 entry that runs the `crc32` instruction eight bytes at a time.
// Crc32c picks the SSE4.2 entry once per process when the CPU has it.
#ifndef FBDETECT_SRC_TSDB_CRC32C_H_
#define FBDETECT_SRC_TSDB_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace fbdetect {

// The CRC32C of `data[0, size)`. Chained calls compose: passing the CRC of
// `a` as the seed of a call over `b` returns the CRC of `a` followed by `b`.
uint32_t Crc32c(const uint8_t* data, size_t size, uint32_t seed = 0);

// The compiled entries, declared so tests can run each one.
namespace crc32c_internal {

struct Entry {
  const char* name;
  bool (*cpu_runs)();
  uint32_t (*crc)(const uint8_t* data, size_t size, uint32_t seed);
};

// Every compiled entry, the portable table loop first.
std::span<const Entry> CompiledEntries();

}  // namespace crc32c_internal
}  // namespace fbdetect

#endif  // FBDETECT_SRC_TSDB_CRC32C_H_
