// Gorilla-style time-series compression (Pelkonen et al., VLDB 2015) — the
// storage format behind Meta's ODS, the production TSDB FBDetect reads from.
//
// Timestamps are delta-of-delta encoded (regular series cost ~1 bit/point);
// values are XOR encoded against the previous value (unchanged values cost
// 1 bit; small mantissa changes cost a dozen bits). At FBDetect's scale
// (~800k series at 10-minute resolution over 10+ day windows) this is the
// difference between fitting in memory and not.
//
// CompressedTimeSeries is an append-only encoder with one recoverable
// decoder that appends to a TimeSeries; chunks this process encoded and
// chunks rebuilt from the durable chunk file (FromRaw) decode alike. The
// round trip is exact (bit-level) for both timestamps and IEEE-754 doubles,
// and a corrupt stream is a kDataLoss status, never an abort.
#ifndef FBDETECT_SRC_TSDB_GORILLA_H_
#define FBDETECT_SRC_TSDB_GORILLA_H_

#include <cstdint>
#include <vector>

#include "src/common/sim_time.h"
#include "src/common/status.h"
#include "src/tsdb/timeseries.h"

namespace fbdetect {

// Append-only bit stream.
class BitWriter {
 public:
  BitWriter() = default;
  // Adopts an existing stream (deserialization); `bit_count` must fit in
  // `bytes`, checked in the constructor.
  BitWriter(std::vector<uint8_t> bytes, size_t bit_count);

  void WriteBit(bool bit);
  // Writes the low `bits` (0..64) bits of `value`, most significant first;
  // higher bits of `value` are ignored. Grows the buffer as push_back would.
  void WriteBits(uint64_t value, int bits);

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  size_t bit_count() const { return bit_count_; }

 private:
  std::vector<uint8_t> bytes_;
  size_t bit_count_ = 0;
};

class CompressedTimeSeries {
 public:
  // Appends a point; timestamps must be strictly increasing.
  void Append(TimePoint timestamp, double value);

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  // Compressed size in bytes (for compression-ratio accounting).
  size_t byte_size() const { return stream_.bytes().size(); }

  // Raw stream parts, the inverse of FromRaw (serialization, tests).
  const std::vector<uint8_t>& bytes() const { return stream_.bytes(); }
  size_t bit_count() const { return stream_.bit_count(); }

  // Appends all points to `out` (which must end before the first point).
  // Exact round trip. Every bit read is bounds-checked, XOR block shapes are
  // validated, timestamp arithmetic is overflow-safe, and decoded timestamps
  // must be strictly increasing; a stream that breaks any of these returns
  // kDataLoss (with `out` holding the valid prefix) instead of aborting or
  // reading out of bounds. Chunks this process encoded and chunks from
  // storage or fuzzing take the same path.
  Status TryDecodeInto(TimeSeries& out) const;

  // Reconstructs a chunk from raw stream parts, e.g. a chunk record read
  // back from the chunk file. Checks (fatally) that `bit_count` fits in
  // `bytes`; a stream that still understates the data for `count` points is
  // a kDataLoss at decode time.
  static CompressedTimeSeries FromRaw(std::vector<uint8_t> bytes, size_t bit_count,
                                      size_t count);

  // False for a chunk rebuilt by FromRaw: it holds the stream but not the
  // encoder state Append continues from, so it decodes and takes no points.
  bool can_append() const { return can_append_; }

 private:
  size_t count_ = 0;
  TimePoint last_timestamp_ = 0;
  Duration last_delta_ = 0;
  uint64_t last_value_bits_ = 0;
  int last_leading_ = -1;   // Leading zero count of the previous XOR block.
  int last_trailing_ = 0;   // Trailing zero count of the previous XOR block.
  bool can_append_ = true;
  BitWriter stream_;
};

}  // namespace fbdetect

#endif  // FBDETECT_SRC_TSDB_GORILLA_H_
