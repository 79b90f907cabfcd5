#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "src/common/random.h"
#include "src/tsdb/gorilla.h"

namespace fbdetect {
namespace {

// Decodes through the one decode path and checks that it succeeded.
TimeSeries DecodeOk(const CompressedTimeSeries& compressed) {
  TimeSeries decoded;
  const Status status = compressed.TryDecodeInto(decoded);
  EXPECT_TRUE(status.ok()) << status.message();
  return decoded;
}

TEST(BitStreamTest, RoundTripsBitPatterns) {
  BitWriter writer;
  writer.WriteBit(true);
  writer.WriteBits(0b1011, 4);
  writer.WriteBits(0xDEADBEEFCAFEF00DULL, 64);
  writer.WriteBit(false);
  // 1 | 1011 | DEADBEEFCAFEF00D | 0, packed MSB-first and zero-padded to
  // whole bytes.
  EXPECT_EQ(writer.bit_count(), 70u);
  const std::vector<uint8_t> expected = {0xDE, 0xF5, 0x6D, 0xF7, 0x7E,
                                         0x57, 0xF7, 0x80, 0x68};
  EXPECT_EQ(writer.bytes(), expected);
}

// The oracle for BitWriter::WriteBits: the writer it replaced, which wrote a
// field one WriteBit at a time and grew its buffer by push_back.
class BitAtATimeWriter {
 public:
  void WriteBit(bool bit) {
    const size_t byte_index = bit_count_ / 8;
    if (byte_index >= bytes_.size()) {
      bytes_.push_back(0);
    }
    if (bit) {
      bytes_[byte_index] |= static_cast<uint8_t>(0x80u >> (bit_count_ % 8));
    }
    ++bit_count_;
  }

  void WriteBits(uint64_t value, int bits) {
    for (int i = bits - 1; i >= 0; --i) {
      WriteBit(((value >> i) & 1) != 0);
    }
  }

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  size_t bit_count() const { return bit_count_; }

 private:
  std::vector<uint8_t> bytes_;
  size_t bit_count_ = 0;
};

// Same calls, same stream: every width 0-64 at every bit offset, values with
// set bits above the width, and never more buffer capacity than the
// bit-at-a-time writer held (chunk buffers are most of the sealed tier's heap).
TEST(BitStreamTest, FieldWriterMatchesTheBitAtATimeWriter) {
  Rng rng(31);
  size_t calls = 0;
  for (int round = 0; round < 300; ++round) {
    BitWriter writer;
    BitAtATimeWriter oracle;
    const size_t round_calls = 1 + rng.NextUint64(300);
    for (size_t c = 0; c < round_calls; ++c, ++calls) {
      if (rng.NextBool(0.2)) {
        const bool bit = rng.NextBool(0.5);
        writer.WriteBit(bit);
        oracle.WriteBit(bit);
      } else {
        const int bits = static_cast<int>(rng.NextUint64(65));
        const uint64_t value = rng.NextBool(0.1) ? ~uint64_t{0} : rng.NextUint64();
        writer.WriteBits(value, bits);
        oracle.WriteBits(value, bits);
      }
      ASSERT_EQ(writer.bit_count(), oracle.bit_count()) << "round " << round << " call " << c;
      ASSERT_EQ(writer.bytes(), oracle.bytes()) << "round " << round << " call " << c;
      ASSERT_LE(writer.bytes().capacity(), oracle.bytes().capacity())
          << "round " << round << " call " << c;
    }
  }
  EXPECT_GT(calls, 30000u);
}

TEST(GorillaTest, ExactRoundTripRegularSeries) {
  CompressedTimeSeries compressed;
  Rng rng(1);
  std::vector<TimePoint> timestamps;
  std::vector<double> values;
  for (int i = 0; i < 2000; ++i) {
    timestamps.push_back(static_cast<TimePoint>(i) * Minutes(10));
    values.push_back(rng.Normal(0.05, 0.001));
    compressed.Append(timestamps.back(), values.back());
  }
  const TimeSeries decoded = DecodeOk(compressed);
  ASSERT_EQ(decoded.size(), 2000u);
  for (size_t i = 0; i < 2000; ++i) {
    EXPECT_EQ(decoded.timestamps()[i], timestamps[i]);
    EXPECT_EQ(decoded.values()[i], values[i]);  // Bit-exact.
  }
}

TEST(GorillaTest, ExactRoundTripIrregularTimestamps) {
  CompressedTimeSeries compressed;
  Rng rng(2);
  TimePoint t = 1234567;
  std::vector<TimePoint> timestamps;
  std::vector<double> values;
  for (int i = 0; i < 500; ++i) {
    t += 1 + static_cast<TimePoint>(rng.NextUint64(100000));  // Wildly irregular.
    timestamps.push_back(t);
    values.push_back(rng.Uniform(-1e9, 1e9));
    compressed.Append(t, values.back());
  }
  const TimeSeries decoded = DecodeOk(compressed);
  ASSERT_EQ(decoded.size(), 500u);
  for (size_t i = 0; i < 500; ++i) {
    EXPECT_EQ(decoded.timestamps()[i], timestamps[i]);
    EXPECT_EQ(decoded.values()[i], values[i]);
  }
}

TEST(GorillaTest, SpecialValuesRoundTrip) {
  CompressedTimeSeries compressed;
  const std::vector<double> specials = {0.0, -0.0, 1.0, -1.0,
                                        std::numeric_limits<double>::infinity(),
                                        -std::numeric_limits<double>::infinity(),
                                        std::numeric_limits<double>::denorm_min(),
                                        std::numeric_limits<double>::max(),
                                        1e-300, 0.1, 0.1, 0.1};
  for (size_t i = 0; i < specials.size(); ++i) {
    compressed.Append(static_cast<TimePoint>(i * 60), specials[i]);
  }
  const TimeSeries decoded = DecodeOk(compressed);
  ASSERT_EQ(decoded.size(), specials.size());
  for (size_t i = 0; i < specials.size(); ++i) {
    // Compare bit patterns (handles -0.0 vs 0.0).
    EXPECT_EQ(std::signbit(decoded.values()[i]), std::signbit(specials[i]));
    EXPECT_EQ(decoded.values()[i], specials[i]);
  }
}

TEST(GorillaTest, ConstantRegularSeriesCompressesHard) {
  // Regular timestamps + constant value: ~2 bits/point after the header.
  CompressedTimeSeries compressed;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    compressed.Append(static_cast<TimePoint>(i) * Minutes(10), 0.25);
  }
  const double bits_per_point =
      8.0 * static_cast<double>(compressed.byte_size()) / n;
  EXPECT_LT(bits_per_point, 3.0);
  // And the round trip still holds.
  const TimeSeries decoded = DecodeOk(compressed);
  EXPECT_EQ(decoded.size(), static_cast<size_t>(n));
  EXPECT_EQ(decoded.values()[n / 2], 0.25);
}

TEST(GorillaTest, NoisySeriesStillBeatsRawStorage) {
  CompressedTimeSeries compressed;
  Rng rng(3);
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    compressed.Append(static_cast<TimePoint>(i) * Minutes(10), rng.Normal(0.05, 0.001));
  }
  // Raw storage: 16 bytes/point. Gorilla on full-precision noise typically
  // lands well under that thanks to timestamp compression + shared exponents.
  const double bytes_per_point = static_cast<double>(compressed.byte_size()) / n;
  EXPECT_LT(bytes_per_point, 12.0);
  const TimeSeries decoded = DecodeOk(compressed);
  EXPECT_EQ(decoded.size(), static_cast<size_t>(n));
}

TEST(GorillaTest, EmptyAndSingle) {
  CompressedTimeSeries compressed;
  EXPECT_TRUE(compressed.empty());
  EXPECT_TRUE(DecodeOk(compressed).empty());
  compressed.Append(42, 3.14);
  const TimeSeries decoded = DecodeOk(compressed);
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded.timestamps()[0], 42);
  EXPECT_EQ(decoded.values()[0], 3.14);
}

TEST(GorillaTest, NanRoundTripsBitExactly) {
  // NaN values flow through the XOR path like any other bit pattern; the
  // round trip must preserve them (value comparison would be false for NaN,
  // so compare bit patterns).
  CompressedTimeSeries compressed;
  const std::vector<double> values = {1.0, std::numeric_limits<double>::quiet_NaN(),
                                      std::numeric_limits<double>::quiet_NaN(), 2.0,
                                      -std::numeric_limits<double>::quiet_NaN(), 0.0};
  for (size_t i = 0; i < values.size(); ++i) {
    compressed.Append(static_cast<TimePoint>(i * 600), values[i]);
  }
  const TimeSeries decoded = DecodeOk(compressed);
  ASSERT_EQ(decoded.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    uint64_t expected = 0;
    uint64_t actual = 0;
    std::memcpy(&expected, &values[i], sizeof(expected));
    std::memcpy(&actual, &decoded.values()[i], sizeof(actual));
    EXPECT_EQ(actual, expected) << "index " << i;
  }
}

TEST(GorillaTest, LargeTimestampGapsRoundTrip) {
  // Delta-of-deltas far outside the 12-bit bucket exercise the 64-bit escape
  // encoding: a ten-minute series with multi-year holes.
  CompressedTimeSeries compressed;
  const std::vector<TimePoint> timestamps = {
      0, 600, 1200, 1200 + 100 * 365 * kDay, 1200 + 100 * 365 * kDay + 600,
      1200 + 200 * 365 * kDay};
  for (size_t i = 0; i < timestamps.size(); ++i) {
    compressed.Append(timestamps[i], static_cast<double>(i));
  }
  const TimeSeries decoded = DecodeOk(compressed);
  ASSERT_EQ(decoded.size(), timestamps.size());
  for (size_t i = 0; i < timestamps.size(); ++i) {
    EXPECT_EQ(decoded.timestamps()[i], timestamps[i]);
    EXPECT_EQ(decoded.values()[i], static_cast<double>(i));
  }
}

TEST(GorillaTest, SinglePointChunkRoundTripsThroughRawParts) {
  // Single-point chunks are the smallest sealed unit; they must survive the
  // serialize-like FromRaw reconstruction and decoding.
  CompressedTimeSeries compressed;
  compressed.Append(987654321, 0.125);
  const CompressedTimeSeries rebuilt = CompressedTimeSeries::FromRaw(
      compressed.bytes() /* copy */, compressed.bit_count(), compressed.size());
  const TimeSeries out = DecodeOk(rebuilt);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.timestamps()[0], 987654321);
  EXPECT_EQ(out.values()[0], 0.125);
}

TEST(GorillaDeathTest, TruncatedStreamFailsLoudly) {
  CompressedTimeSeries compressed;
  for (int i = 0; i < 100; ++i) {
    compressed.Append(static_cast<TimePoint>(i) * 600, 0.05 + 0.001 * i);
  }

  // Bit count claims more data than the backing bytes hold: rejected at
  // construction (this used to be silent out-of-bounds indexing).
  std::vector<uint8_t> truncated = compressed.bytes();
  truncated.resize(truncated.size() / 2);
  EXPECT_DEATH(CompressedTimeSeries::FromRaw(truncated, compressed.bit_count(),
                                             compressed.size()),
               "");
}

TEST(GorillaTest, TryDecodeIntoRoundTripsValidChunk) {
  CompressedTimeSeries compressed;
  for (int i = 0; i < 200; ++i) {
    compressed.Append(600 * i, 0.01 * i);
  }
  TimeSeries decoded;
  ASSERT_TRUE(compressed.TryDecodeInto(decoded).ok());
  ASSERT_EQ(decoded.size(), 200u);
  EXPECT_EQ(decoded.timestamps().front(), 0);
  EXPECT_EQ(decoded.timestamps().back(), 600 * 199);
  EXPECT_DOUBLE_EQ(decoded.values().back(), 0.01 * 199);
}

TEST(GorillaTest, TryDecodeIntoOverstatedCountIsDataLossWithValidPrefix) {
  CompressedTimeSeries compressed;
  for (int i = 0; i < 200; ++i) {
    compressed.Append(600 * i, 0.01 * i);
  }
  // Same bytes/bits but an overstated point count: the decoder runs off the
  // end of the stream, reports kDataLoss and keeps the valid prefix it
  // decoded before running out of bits.
  const CompressedTimeSeries overcounted = CompressedTimeSeries::FromRaw(
      compressed.bytes(), compressed.bit_count(), compressed.size() + 50);
  TimeSeries partial;
  const Status status = overcounted.TryDecodeInto(partial);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(partial.size(), 200u);
}

TEST(GorillaTest, TryDecodeIntoTruncatedStreamIsDataLossNotAbort) {
  CompressedTimeSeries compressed;
  for (int i = 0; i < 200; ++i) {
    compressed.Append(600 * i, 0.01 * i);
  }
  // Keep only the first 4 bytes: not even the header point survives. The
  // checked reader must refuse cleanly instead of indexing past the buffer.
  const std::vector<uint8_t> tiny(compressed.bytes().begin(),
                                  compressed.bytes().begin() + 4);
  const CompressedTimeSeries truncated =
      CompressedTimeSeries::FromRaw(tiny, 32, compressed.size());
  TimeSeries out;
  EXPECT_EQ(truncated.TryDecodeInto(out).code(), StatusCode::kDataLoss);
  EXPECT_LT(out.size(), 2u);
}

// Property: round trip is exact for any seeded random series.
class GorillaRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GorillaRoundTripTest, BitExactRoundTrip) {
  Rng rng(GetParam());
  CompressedTimeSeries compressed;
  TimePoint t = static_cast<TimePoint>(rng.NextUint64(1000000));
  std::vector<TimePoint> timestamps;
  std::vector<double> values;
  const int n = 1000;
  for (int i = 0; i < n; ++i) {
    t += 1 + static_cast<TimePoint>(rng.NextUint64(1 + rng.NextUint64(10000)));
    double v = 0.0;
    switch (rng.NextUint64(4)) {
      case 0:
        v = rng.Normal(0.0, 1.0);
        break;
      case 1:
        v = values.empty() ? 1.0 : values.back();  // Repeats.
        break;
      case 2:
        v = rng.Uniform(-1e12, 1e12);
        break;
      default:
        v = std::exp(rng.Normal(0.0, 10.0));
        break;
    }
    timestamps.push_back(t);
    values.push_back(v);
    compressed.Append(t, v);
  }
  const TimeSeries decoded = DecodeOk(compressed);
  ASSERT_EQ(decoded.size(), static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(decoded.timestamps()[static_cast<size_t>(i)], timestamps[static_cast<size_t>(i)]);
    ASSERT_EQ(decoded.values()[static_cast<size_t>(i)], values[static_cast<size_t>(i)]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GorillaRoundTripTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace fbdetect
