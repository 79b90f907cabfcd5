// Fuzz target for the recoverable Gorilla decoder (TryDecodeInto).
//
// The decoder is the one place FBDetect parses a packed binary format whose
// bytes may come from untrusted storage, so it must never read out of
// bounds, hit signed-overflow UB, or abort — for any input. The harness
// decodes every input through CompressedTimeSeries::FromRaw, the path a
// chunk restored from the chunk file takes (the restore clamps the record's
// bit count to its payload; here it is reduced modulo what the bytes hold,
// since FromRaw's size check needs a bit count that fits). The decode is
// checked for the invariants the decoder promises: errors come back as
// Status (never an exception or a crash), any decoded prefix is strictly
// increasing in time, and a successful decode returns `count` points.
//
// Input layout: [0..7] little-endian point count (clamped to 64k),
// [8..15] claimed bit count (reduced modulo what the remaining bytes hold),
// [16..] the bit stream.
//
// Two build modes:
//   * FBD_USE_LIBFUZZER: a classic LLVMFuzzerTestOneInput entry point for
//     clang's -fsanitize=fuzzer (enable with -DFBD_LIBFUZZER=ON).
//   * default: a standalone smoke binary (works with any compiler) that
//     generates its own inputs for a wall-clock duration — random garbage,
//     plus valid sealed chunks with random bit flips and truncations, which
//     reach much deeper decode states than noise alone. Each valid chunk is
//     first decoded untouched and checked against the points appended, so
//     the encoder is fuzzed too. Used by the chaos CI job:
//     `fuzz_gorilla [seconds] [seed]`.
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/common/check.h"
#include "src/common/status.h"
#include "src/tsdb/gorilla.h"
#include "src/tsdb/timeseries.h"

namespace {

uint64_t ReadLittleEndian64(const uint8_t* data) {
  uint64_t value = 0;
  std::memcpy(&value, data, sizeof(value));
  return value;
}

// Whatever the outcome, any decoded prefix obeys the TimeSeries ordering
// invariant, and a successful decode holds every claimed point.
void CheckDecode(const fbdetect::Status& status, const fbdetect::TimeSeries& out,
                 size_t count) {
  for (size_t i = 1; i < out.size(); ++i) {
    FBD_CHECK(out.timestamps()[i] > out.timestamps()[i - 1]);
  }
  if (status.ok()) {
    FBD_CHECK(out.size() == count);
  }
}

// Decodes raw fuzz bytes as a chunk, for both build modes. Returns the
// status code so the smoke harness can track coverage counters.
fbdetect::StatusCode DecodeOne(const uint8_t* data, size_t size) {
  if (size < 16) {
    return fbdetect::StatusCode::kInvalidArgument;
  }
  const size_t count = static_cast<size_t>(ReadLittleEndian64(data) % 65536);
  const size_t claimed_bits = static_cast<size_t>(ReadLittleEndian64(data + 8));
  std::vector<uint8_t> bytes(data + 16, data + size);
  const size_t max_bits = bytes.size() * 8;
  const size_t bit_count = max_bits == 0 ? 0 : claimed_bits % (max_bits + 1);
  const fbdetect::CompressedTimeSeries chunk =
      fbdetect::CompressedTimeSeries::FromRaw(std::move(bytes), bit_count, count);
  fbdetect::TimeSeries out;
  const fbdetect::Status status = chunk.TryDecodeInto(out);
  CheckDecode(status, out, count);
  return status.code();
}

}  // namespace

#ifdef FBD_USE_LIBFUZZER

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  DecodeOne(data, size);
  return 0;
}

#else  // Standalone smoke harness.

#include <chrono>
#include <cmath>
#include <cstdio>

#include "src/common/random.h"
#include "tools/parse_flag.h"

namespace {

// A raw value pattern the arithmetic cases never produce: a NaN with a
// random payload, an infinity, a zero or a denormal, of either sign, or 64
// random bits. Many XOR with the previous value to a block spanning all 64
// bits, the block length the encoder stores as 0.
double RawValue(fbdetect::Rng& rng) {
  const uint64_t sign = rng.NextBool(0.5) ? uint64_t{1} << 63 : 0;
  const uint64_t mantissa = rng.NextUint64() & ((uint64_t{1} << 52) - 1);
  constexpr uint64_t kExponentAllOnes = uint64_t{0x7ff} << 52;
  uint64_t bits = 0;
  switch (rng.NextUint64(5)) {
    case 0:
      bits = sign | kExponentAllOnes | (mantissa == 0 ? 1 : mantissa);  // NaN.
      break;
    case 1:
      bits = sign | kExponentAllOnes;  // Infinity.
      break;
    case 2:
      bits = sign;  // Zero.
      break;
    case 3:
      bits = sign | (mantissa == 0 ? 1 : mantissa);  // Denormal.
      break;
    default:
      bits = rng.NextUint64();
      break;
  }
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

// A well-formed sealed chunk exercising every encoder branch: regular and
// jittered timestamps (all four delta-of-delta buckets), repeated values,
// small XOR deltas, magnitude jumps and raw bit patterns. `timestamps` and
// `value_bits` receive what was appended.
fbdetect::CompressedTimeSeries SeedChunk(fbdetect::Rng& rng, size_t points,
                                         std::vector<fbdetect::TimePoint>& timestamps,
                                         std::vector<uint64_t>& value_bits) {
  fbdetect::CompressedTimeSeries chunk;
  timestamps.clear();
  value_bits.clear();
  int64_t t = static_cast<int64_t>(rng.NextUint64(1000));
  double value = rng.Uniform(0.0, 100.0);
  for (size_t i = 0; i < points; ++i) {
    chunk.Append(t, value);
    timestamps.push_back(t);
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    value_bits.push_back(bits);
    t += 1 + static_cast<int64_t>(rng.NextUint64(4) == 0 ? rng.NextUint64(5000) : 60);
    switch (rng.NextUint64(5)) {
      case 0:
        break;  // Unchanged value: the 1-bit XOR branch.
      case 1:
        value += rng.Uniform(-1.0, 1.0);
        break;
      case 2:
        value = rng.Uniform(0.0, 1e9);
        break;
      case 3:
        value = RawValue(rng);
        break;
      default:
        value = -value;
        break;
    }
  }
  return chunk;
}

// The encoder's side of the round trip: the untouched chunk decodes to
// exactly the appended timestamps and value bits.
void CheckRoundTrip(const fbdetect::CompressedTimeSeries& chunk,
                    const std::vector<fbdetect::TimePoint>& timestamps,
                    const std::vector<uint64_t>& value_bits) {
  fbdetect::TimeSeries out;
  FBD_CHECK(chunk.TryDecodeInto(out).ok());
  FBD_CHECK(out.size() == timestamps.size());
  for (size_t i = 0; i < out.size(); ++i) {
    uint64_t bits = 0;
    std::memcpy(&bits, &out.values()[i], sizeof(bits));
    FBD_CHECK(out.timestamps()[i] == timestamps[i]);
    FBD_CHECK(bits == value_bits[i]);
  }
}

}  // namespace

int main(int argc, char** argv) {
  double seconds = 10.0;
  uint64_t seed = 1;
  if ((argc > 1 && !fbdetect::ParseFlag("seconds", argv[1], &seconds)) ||
      (argc > 2 && !fbdetect::ParseFlag("seed", argv[2], &seed))) {
    return 1;
  }
  if (!std::isfinite(seconds) || seconds <= 0.0) {
    std::fprintf(stderr, "bad value for seconds: %s\n", argv[1]);
    return 1;
  }
  fbdetect::Rng rng(seed);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(seconds);
  uint64_t iterations = 0;
  uint64_t ok = 0;
  uint64_t data_loss = 0;
  uint64_t round_trips = 0;
  std::vector<uint8_t> input;
  std::vector<fbdetect::TimePoint> timestamps;
  std::vector<uint64_t> value_bits;
  while (std::chrono::steady_clock::now() < deadline) {
    for (int batch = 0; batch < 512; ++batch) {
      ++iterations;
      input.clear();
      if (rng.NextBool(0.5)) {
        // Mode 1: random garbage of random length.
        const size_t size = 16 + rng.NextUint64(256);
        for (size_t i = 0; i < size; ++i) {
          input.push_back(static_cast<uint8_t>(rng.NextUint64(256)));
        }
      } else {
        // Mode 2: a valid sealed chunk, checked to round-trip, then bit
        // flips and/or truncation — reaches deep decoder states that random
        // noise cannot.
        const fbdetect::CompressedTimeSeries chunk =
            SeedChunk(rng, 2 + rng.NextUint64(128), timestamps, value_bits);
        CheckRoundTrip(chunk, timestamps, value_bits);
        ++round_trips;
        const size_t bit_count = chunk.bit_count();
        size_t count = chunk.size();
        std::vector<uint8_t> bytes = chunk.bytes();
        const size_t flips = rng.NextUint64(8);
        for (size_t f = 0; f < flips && !bytes.empty(); ++f) {
          bytes[rng.NextUint64(bytes.size())] ^=
              static_cast<uint8_t>(1u << rng.NextUint64(8));
        }
        if (rng.NextBool(0.3) && !bytes.empty()) {
          bytes.resize(1 + rng.NextUint64(bytes.size()));
        }
        if (rng.NextBool(0.2)) {
          count += rng.NextUint64(16);  // Over-claimed point count.
        }
        input.resize(16);
        std::memcpy(input.data(), &count, 8);
        std::memcpy(input.data() + 8, &bit_count, 8);
        input.insert(input.end(), bytes.begin(), bytes.end());
      }
      switch (DecodeOne(input.data(), input.size())) {
        case fbdetect::StatusCode::kOk:
          ++ok;
          break;
        case fbdetect::StatusCode::kDataLoss:
          ++data_loss;
          break;
        default:
          break;
      }
    }
  }
  if (iterations == 0) {
    std::fprintf(stderr, "fuzz_gorilla: no input ran in %g s\n", seconds);
    return 1;
  }
  std::printf(
      "fuzz_gorilla: %llu inputs, %llu decoded ok, %llu data-loss, %llu encoder round trips "
      "checked, 0 crashes\n",
      static_cast<unsigned long long>(iterations), static_cast<unsigned long long>(ok),
      static_cast<unsigned long long>(data_loss), static_cast<unsigned long long>(round_trips));
  return 0;
}

#endif  // FBD_USE_LIBFUZZER
