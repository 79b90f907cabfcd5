#include "src/tsdb/gorilla.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <span>

#include "src/common/check.h"

namespace fbdetect {
namespace {

uint64_t DoubleToBits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double BitsToDouble(uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

// ZigZag encoding maps signed deltas to unsigned for variable-width storage.
uint64_t ZigZag(int64_t value) {
  return (static_cast<uint64_t>(value) << 1) ^ static_cast<uint64_t>(value >> 63);
}

int64_t UnZigZag(uint64_t value) {
  return static_cast<int64_t>(value >> 1) ^ -static_cast<int64_t>(value & 1);
}

// Word-at-a-time cursor over a bit stream: instead of extracting one bit per
// iteration (the historical decoder's dominant cost), each read loads a
// 64-bit window around the cursor and shifts the field out. `bit_count` is
// clamped to the bytes, and every checked read is bounds-checked against it;
// a failed read becomes a kDataLoss status in TryDecodeInto.
class FastBitReader {
 public:
  FastBitReader(const uint8_t* data, size_t size_bytes, size_t bit_count)
      : data_(data),
        size_(size_bytes),
        bit_count_(std::min(bit_count, size_bytes * 8)) {}

  size_t remaining() const { return bit_count_ - position_; }

  // Reads `bits` (1..64) MSB-first; false (cursor unmoved) when fewer bits
  // remain.
  bool TryReadBits(int bits, uint64_t& value) {
    if (remaining() < static_cast<size_t>(bits)) {
      return false;
    }
    const size_t byte = position_ >> 3;
    const int off = static_cast<int>(position_ & 7);
    const uint64_t window = PeekWord(byte) << off;
    if (bits <= 64 - off) {
      value = window >> (64 - bits);
    } else {
      // The field spans 9 bytes: take the 64 - off bits of the shifted
      // window, then the leftover 1..7 bits from the next byte.
      const int have = 64 - off;
      const int extra = bits - have;
      const uint8_t next = byte + 8 < size_ ? data_[byte + 8] : 0;
      value = ((window >> off) << extra) |
              static_cast<uint64_t>(next >> (8 - extra));
    }
    position_ += static_cast<size_t>(bits);
    return true;
  }

  // The next `bits` (<= 57) without advancing; positions beyond the stream
  // read as 0. Flag decoding peeks a few bits, classifies, then advances by
  // the consumed amount — TryAdvance still enforces the bound.
  uint64_t Peek(int bits) const {
    const size_t byte = position_ >> 3;
    const int off = static_cast<int>(position_ & 7);
    return (PeekWord(byte) << off) >> (64 - bits);
  }

  bool TryAdvance(int bits) {
    if (remaining() < static_cast<size_t>(bits)) {
      return false;
    }
    position_ += static_cast<size_t>(bits);
    return true;
  }

  // Unchecked hot-loop variants. The caller must guarantee remaining() is at
  // least `bits` + 64 so that every 8-byte window load (and the 9th byte of
  // a spanning field) stays inside the buffer — ParseChunk's fast path keeps
  // a worst-case-point margin before entering them.
  uint64_t PeekUnchecked(int bits) const {
    const size_t byte = position_ >> 3;
    const int off = static_cast<int>(position_ & 7);
    return (LoadWord(byte) << off) >> (64 - bits);
  }

  void AdvanceUnchecked(int bits) { position_ += static_cast<size_t>(bits); }

  uint64_t ReadBitsUnchecked(int bits) {
    const size_t byte = position_ >> 3;
    const int off = static_cast<int>(position_ & 7);
    const uint64_t window = LoadWord(byte) << off;
    uint64_t value;
    if (bits <= 64 - off) {
      value = window >> (64 - bits);
    } else {
      const int have = 64 - off;
      const int extra = bits - have;
      value = ((window >> off) << extra) |
              static_cast<uint64_t>(data_[byte + 8] >> (8 - extra));
    }
    position_ += static_cast<size_t>(bits);
    return value;
  }

 private:
  // Unconditional in-bounds 8-byte window load (callers on the unchecked
  // path guarantee byte + 8 <= size_).
  uint64_t LoadWord(size_t byte) const {
    uint64_t word = 0;
    std::memcpy(&word, data_ + byte, sizeof(word));
    if constexpr (std::endian::native == std::endian::little) {
      word = __builtin_bswap64(word);
    }
    return word;
  }

  // Big-endian 64-bit window starting at `byte`; bytes past the buffer read
  // as 0 (the bit-count checks reject any read that would depend on them).
  uint64_t PeekWord(size_t byte) const {
    if (byte + 8 <= size_) {
      return LoadWord(byte);
    }
    uint64_t word = 0;
    for (size_t k = 0; k < 8; ++k) {
      word = (word << 8) | (byte + k < size_ ? data_[byte + k] : 0u);
    }
    return word;
  }

  const uint8_t* data_;
  size_t size_;
  size_t bit_count_;
  size_t position_ = 0;
};

// Phase-1 result of the two-phase batch decode (see TryDecodeInto).
struct ParsedChunk {
  size_t decoded = 0;           // Fully parsed points (header included).
  const char* error = nullptr;  // Null when all `count` points parsed.
  TimePoint first_timestamp = 0;
  uint64_t first_value_bits = 0;
};

// Inclusive prefix sum with wrap-around semantics: out[i] = seed + in[0] +
// ... + in[i]. Unsigned internally: corrupt Gorilla streams can overflow a
// signed running sum, which would be UB; two's-complement wrap matches the
// decoder's documented overflow-safe semantics.
void PrefixSumI64(const int64_t* in, size_t n, int64_t seed, int64_t* out) {
  uint64_t acc = static_cast<uint64_t>(seed);
  for (size_t i = 0; i < n; ++i) {
    acc += static_cast<uint64_t>(in[i]);
    out[i] = static_cast<int64_t>(acc);
  }
}

// Inclusive prefix XOR re-interpreted as doubles: out[i] is the double whose
// bits are seed ^ in[0] ^ ... ^ in[i].
void PrefixXorToDoubles(const uint64_t* in, size_t n, uint64_t seed, double* out) {
  uint64_t acc = seed;
  for (size_t i = 0; i < n; ++i) {
    acc ^= in[i];
    out[i] = BitsToDouble(acc);
  }
}

// Phase 1: parses control and field bits for up to `count` points into flat
// per-point arrays — dods[i] (timestamp delta-of-delta) and xors[i] (value
// XOR against the previous value), with index 0 zeroed for the header point.
// Stops at the first malformed or truncated field; `decoded` then names the
// valid prefix. Phase 2 turns these arrays into timestamps and values with
// the prefix scans below.
ParsedChunk ParseChunk(const uint8_t* bytes, size_t size_bytes, size_t bit_count,
                       size_t count, int64_t* dods, uint64_t* xors) {
  ParsedChunk parsed;
  FastBitReader reader(bytes, size_bytes, bit_count);
  uint64_t raw = 0;
  uint64_t value_bits = 0;
  if (!reader.TryReadBits(64, raw) || !reader.TryReadBits(64, value_bits)) {
    parsed.error = "truncated chunk header";
    return parsed;
  }
  parsed.first_timestamp = static_cast<TimePoint>(raw);
  parsed.first_value_bits = value_bits;
  dods[0] = 0;
  xors[0] = 0;
  parsed.decoded = 1;
  int leading = 0;
  int trailing = 0;
  // Leading-ones count of a 4-bit timestamp flag: '0' -> 0, '10' -> 1,
  // '110' -> 2, '1110' -> 3, '1111' -> 4.
  static constexpr int8_t kLeadingOnes[16] = {0, 0, 0, 0, 0, 0, 0, 0,
                                              1, 1, 1, 1, 2, 2, 3, 4};
  static constexpr int kDodBits[5] = {0, 7, 9, 12, 64};
  size_t i = 1;
  // Fast loop: a worst-case point is 4+64+2+11+64 = 145 bits, so with a
  // >= 209-bit margin (145 plus a full 64-bit window) no per-field bound can
  // trip and every window load is in bounds — fields are read unchecked.
  // The stream tail falls through to the checked loop below.
  while (i < count && reader.remaining() >= 209) {
    // Dominant telemetry point: regular grid (dod '0') and repeated value
    // ('0') compress to two zero bits — decode both flags with one peek.
    if (reader.PeekUnchecked(2) == 0) {
      reader.AdvanceUnchecked(2);
      dods[i] = 0;
      xors[i] = 0;
      parsed.decoded = ++i;
      continue;
    }
    const int ones = kLeadingOnes[reader.PeekUnchecked(4)];
    reader.AdvanceUnchecked(ones < 4 ? ones + 1 : 4);
    int64_t dod = 0;
    if (ones > 0) {
      dod = UnZigZag(reader.ReadBitsUnchecked(kDodBits[ones]));
    }
    dods[i] = dod;
    const unsigned value_flag = static_cast<unsigned>(reader.PeekUnchecked(2));
    uint64_t xored = 0;
    if ((value_flag & 2u) == 0) {
      reader.AdvanceUnchecked(1);
    } else {
      reader.AdvanceUnchecked(2);
      int block_bits = 0;
      if ((value_flag & 1u) != 0) {
        const uint64_t lead_and_length = reader.ReadBitsUnchecked(11);
        const int lead = static_cast<int>(lead_and_length >> 6);
        block_bits = static_cast<int>(lead_and_length & 0x3f);
        if (block_bits == 0) {
          block_bits = 64;
        }
        if (lead + block_bits > 64) {
          parsed.error = "invalid XOR block shape";
          return parsed;
        }
        leading = lead;
        trailing = 64 - leading - block_bits;
      } else {
        block_bits = 64 - leading - trailing;
      }
      xored = reader.ReadBitsUnchecked(block_bits) << trailing;
    }
    xors[i] = xored;
    parsed.decoded = ++i;
  }
  for (; i < count; ++i) {
    // Timestamp: delta-of-delta buckets ('0', '10', '110', '1110', '1111').
    const int ones = kLeadingOnes[reader.Peek(4)];
    if (!reader.TryAdvance(ones < 4 ? ones + 1 : 4)) {
      parsed.error = "truncated timestamp flag";
      return parsed;
    }
    int64_t dod = 0;
    if (ones > 0) {
      uint64_t zigzag = 0;
      if (!reader.TryReadBits(kDodBits[ones], zigzag)) {
        parsed.error = "truncated timestamp delta";
        return parsed;
      }
      dod = UnZigZag(zigzag);
    }
    dods[i] = dod;
    // Value: XOR block ('0' same, '10' reuse position, '11' new position).
    const unsigned value_flag = static_cast<unsigned>(reader.Peek(2));
    uint64_t xored = 0;
    if ((value_flag & 2u) == 0) {
      if (!reader.TryAdvance(1)) {
        parsed.error = "truncated value flag";
        return parsed;
      }
    } else {
      if (!reader.TryAdvance(2)) {
        parsed.error = "truncated value flag";
        return parsed;
      }
      int block_bits = 0;
      if ((value_flag & 1u) != 0) {
        uint64_t lead_and_length = 0;  // 5 bits leading + 6 bits length.
        if (!reader.TryReadBits(11, lead_and_length)) {
          parsed.error = "truncated XOR block position";
          return parsed;
        }
        const int lead = static_cast<int>(lead_and_length >> 6);
        block_bits = static_cast<int>(lead_and_length & 0x3f);
        if (block_bits == 0) {
          block_bits = 64;
        }
        if (lead + block_bits > 64) {
          parsed.error = "invalid XOR block shape";
          return parsed;
        }
        leading = lead;
        trailing = 64 - leading - block_bits;
      } else {
        block_bits = 64 - leading - trailing;
      }
      uint64_t block = 0;
      if (!reader.TryReadBits(block_bits, block)) {
        parsed.error = "truncated XOR block";
        return parsed;
      }
      xored = block << trailing;
    }
    xors[i] = xored;
    parsed.decoded = i + 1;
  }
  return parsed;
}

}  // namespace

BitWriter::BitWriter(std::vector<uint8_t> bytes, size_t bit_count)
    : bytes_(std::move(bytes)), bit_count_(bit_count) {
  FBD_CHECK(bit_count_ <= bytes_.size() * 8);
}

void BitWriter::WriteBit(bool bit) {
  const size_t byte_index = bit_count_ / 8;
  if (byte_index >= bytes_.size()) {
    bytes_.push_back(0);
  }
  if (bit) {
    bytes_[byte_index] |= static_cast<uint8_t>(0x80u >> (bit_count_ % 8));
  }
  ++bit_count_;
}

void BitWriter::WriteBits(uint64_t value, int bits) {
  FBD_DCHECK(bits >= 0 && bits <= 64);
  if (bits == 0) {
    return;
  }
  const size_t end_bit = bit_count_ + static_cast<size_t>(bits);
  const size_t need = (end_bit + 7) / 8;
  if (need > bytes_.size()) {
    if (need > bytes_.capacity()) {
      // Double from the current capacity, as push_back does one byte at a
      // time, so a chunk's buffer keeps no more slack than WriteBit leaves.
      size_t capacity = std::max<size_t>(bytes_.capacity(), 1);
      while (capacity < need) {
        capacity *= 2;
      }
      bytes_.reserve(capacity);
    }
    bytes_.resize(need);
  }
  // The field's first bit at bit 63; bits of `value` above `bits` fall off.
  const uint64_t field = value << (64 - bits);
  uint8_t* out = bytes_.data() + bit_count_ / 8;
  const int open_bits = 8 - static_cast<int>(bit_count_ % 8);
  *out |= static_cast<uint8_t>(field >> (64 - open_bits));
  for (int done = open_bits; done < bits; done += 8) {
    *++out |= static_cast<uint8_t>((field << done) >> 56);
  }
  bit_count_ = end_bit;
}

void CompressedTimeSeries::Append(TimePoint timestamp, double value) {
  FBD_CHECK(can_append_);
  FBD_CHECK(count_ == 0 || timestamp > last_timestamp_);
  const uint64_t value_bits = DoubleToBits(value);

  if (count_ == 0) {
    // Header: absolute first timestamp (64 bits) + raw first value (64 bits).
    stream_.WriteBits(static_cast<uint64_t>(timestamp), 64);
    stream_.WriteBits(value_bits, 64);
    last_timestamp_ = timestamp;
    last_delta_ = 0;
    last_value_bits_ = value_bits;
    last_leading_ = -1;
    ++count_;
    return;
  }

  // --- Timestamp: delta-of-delta, Gorilla bucket encoding ---
  const Duration delta = timestamp - last_timestamp_;
  const int64_t dod = static_cast<int64_t>(delta) - static_cast<int64_t>(last_delta_);
  if (dod == 0) {
    stream_.WriteBit(false);  // '0'
  } else if (dod >= -64 && dod <= 63) {
    stream_.WriteBits(0b10, 2);
    stream_.WriteBits(ZigZag(dod), 7);
  } else if (dod >= -256 && dod <= 255) {
    stream_.WriteBits(0b110, 3);
    stream_.WriteBits(ZigZag(dod), 9);
  } else if (dod >= -2048 && dod <= 2047) {
    stream_.WriteBits(0b1110, 4);
    stream_.WriteBits(ZigZag(dod), 12);
  } else {
    stream_.WriteBits(0b1111, 4);
    stream_.WriteBits(ZigZag(dod), 64);
  }
  last_timestamp_ = timestamp;
  last_delta_ = delta;

  // --- Value: XOR encoding ---
  const uint64_t xored = value_bits ^ last_value_bits_;
  if (xored == 0) {
    stream_.WriteBit(false);  // '0': identical value.
  } else {
    stream_.WriteBit(true);
    int leading = std::countl_zero(xored);
    const int trailing = std::countr_zero(xored);
    if (leading > 31) {
      leading = 31;  // 5-bit field.
    }
    if (last_leading_ >= 0 && leading >= last_leading_ &&
        trailing >= last_trailing_) {
      // '10': reuse the previous block position.
      stream_.WriteBit(false);
      const int block_bits = 64 - last_leading_ - last_trailing_;
      stream_.WriteBits(xored >> last_trailing_, block_bits);
    } else {
      // '11': new block position (5 bits leading, 6 bits length; a full
      // 64-bit block is stored as 0 since the block is never empty).
      stream_.WriteBit(true);
      const int block_bits = 64 - leading - trailing;
      stream_.WriteBits(static_cast<uint64_t>(leading), 5);
      stream_.WriteBits(static_cast<uint64_t>(block_bits == 64 ? 0 : block_bits), 6);
      stream_.WriteBits(xored >> trailing, block_bits);
      last_leading_ = leading;
      last_trailing_ = trailing;
    }
  }
  last_value_bits_ = value_bits;
  ++count_;
}

// Two-phase batch decode.
//
// Phase 1 (ParseChunk) walks the bit stream once with word-sized reads and
// leaves flat dod/xor arrays in per-thread scratch. Phase 2 reconstructs the
// points with plain prefix scans: timestamps are two chained prefix
// sums (delta-of-deltas -> deltas -> stamps; wrap-around arithmetic so
// corrupt streams cannot hit signed overflow), values are one prefix XOR.
// The strictly-increasing prefix is bulk-appended to `out`; any bounds,
// shape or ordering failure is a kDataLoss status saying why the decode
// stopped short.
//
// Matches the historical point-at-a-time decoder exactly: same points
// appended (the valid prefix), same error precedence (a non-increasing
// timestamp reports before a later parse failure).
Status CompressedTimeSeries::TryDecodeInto(TimeSeries& out) const {
  if (count_ == 0) {
    return Status::Ok();
  }
  // Per-thread scratch that only grows, so steady-state decodes allocate
  // nothing; each array is fully written before it is read.
  thread_local std::vector<int64_t> dods;
  thread_local std::vector<uint64_t> xors;
  thread_local std::vector<int64_t> deltas;
  thread_local std::vector<TimePoint> stamps;
  thread_local std::vector<double> values;
  if (dods.size() < count_) {
    dods.resize(count_);
    xors.resize(count_);
    deltas.resize(count_);
    stamps.resize(count_);
    values.resize(count_);
  }
  const ParsedChunk parsed = ParseChunk(stream_.bytes().data(), stream_.bytes().size(),
                                        stream_.bit_count(), count_, dods.data(), xors.data());
  if (parsed.decoded == 0) {
    return Status::DataLoss(parsed.error);
  }
  const size_t n = parsed.decoded;
  PrefixSumI64(dods.data(), n, 0, deltas.data());
  PrefixSumI64(deltas.data(), n, parsed.first_timestamp, stamps.data());
  PrefixXorToDoubles(xors.data(), n, parsed.first_value_bits, values.data());

  if (!out.empty() && stamps[0] <= out.end_time()) {
    return Status::DataLoss("chunk does not start after preceding points");
  }
  size_t valid = n;
  for (size_t i = 1; i < n; ++i) {
    if (stamps[i] <= stamps[i - 1]) {
      valid = i;
      break;
    }
  }
  out.AppendRun(std::span<const TimePoint>(stamps).first(valid),
                std::span<const double>(values).first(valid));
  if (valid < n) {
    return Status::DataLoss("non-increasing decoded timestamp");
  }
  if (parsed.error != nullptr) {
    return Status::DataLoss(parsed.error);
  }
  return Status::Ok();
}

CompressedTimeSeries CompressedTimeSeries::FromRaw(std::vector<uint8_t> bytes,
                                                   size_t bit_count, size_t count) {
  CompressedTimeSeries chunk;
  chunk.count_ = count;
  chunk.stream_ = BitWriter(std::move(bytes), bit_count);
  // Timestamp bookkeeping (first/last/delta, XOR block state) is unknown for
  // a raw stream; the chunk supports decoding, not further appends.
  chunk.can_append_ = false;
  return chunk;
}

}  // namespace fbdetect
