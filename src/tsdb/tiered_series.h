// Tiered storage for one time series: cold history sealed into
// Gorilla-compressed chunks, plus a raw mutable tail that recent writes and
// the zero-copy scan path (ScanView / WindowView) operate on directly.
//
// With the durable tier enabled (TsdbOptions::durable), sealed chunks gain a
// third state: persisted to a per-shard memory-mapped chunk file and evicted
// from heap. A non-resident chunk keeps only its location in the file
// (offset/len/bit_count) and its range; readback decodes the mapped payload
// in place through CompressedChunkView — page-cache-served, no heap copy.
//
// Invariants:
//   - Every sealed point is strictly older than every tail point.
//   - Chunks are ordered; chunk timestamps never overlap.
//   - Sealed chunks are immutable except for DropBefore (retention), which
//     drops whole chunks and re-encodes at most the one straddling chunk.
//   - Appends go to the tail only; SealBefore moves tail points into chunks.
//   - A chunk is evictable only once every point in it is durable
//     (durable_count == count); eviction never loses data.
//
// Because the Gorilla round trip is bit-exact — for resident chunks and for
// mapped payloads alike — materializing a tiered series yields the
// byte-identical TimeSeries the raw path would have produced: tiering and
// the disk tier on/off cannot change detection output.
#ifndef FBDETECT_SRC_TSDB_TIERED_SERIES_H_
#define FBDETECT_SRC_TSDB_TIERED_SERIES_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/sim_time.h"
#include "src/common/status.h"
#include "src/tsdb/gorilla.h"
#include "src/tsdb/timeseries.h"

namespace fbdetect {

// Fate of one ingested point. Rejections are data errors (dirty telemetry:
// retransmits, clock resets, delayed buffers), not programmer errors — the
// database counts them per series instead of aborting.
enum class AppendOutcome {
  kAppended = 0,
  kDuplicate,    // Timestamp equals the newest stored point.
  kOutOfOrder,   // Timestamp precedes the newest stored point.
};

// Where non-resident chunk payloads come from: in production, the owning
// shard's ChunkStore (src/tsdb/chunk_store.h) behind a thin adapter. Spans
// returned must stay valid for the source's lifetime (the chunk store never
// unmaps old mapping generations, which is what makes this safe to call from
// concurrent scan threads).
class ChunkPayloadSource {
 public:
  virtual ~ChunkPayloadSource() = default;
  virtual std::span<const uint8_t> ChunkPayload(uint64_t offset, uint32_t len) = 0;
};

class TieredSeries {
 public:
  // Durable-tier metadata for one sealed chunk, exposed so the database can
  // drive persistence and eviction without knowing chunk internals.
  struct ChunkInfo {
    TimePoint first = 0;
    TimePoint last = 0;
    uint32_t count = 0;          // Points in the chunk.
    uint32_t durable_count = 0;  // Points covered by the last persist.
    bool resident = false;       // Heap-resident encoded copy present.
    uint64_t store_offset = 0;   // Valid when durable_count > 0.
    uint32_t store_len = 0;
    uint64_t store_bit_count = 0;
  };

  // `seal_chunk_points`: target points per sealed chunk; SealBefore keeps
  // appending to the newest chunk until it reaches this size.
  explicit TieredSeries(size_t seal_chunk_points = 1024)
      : seal_chunk_points_(seal_chunk_points) {}

  // Appends to the tail when `timestamp` is strictly after every stored
  // point, sealed or not; otherwise classifies the point and stores nothing.
  AppendOutcome TryAppend(TimePoint timestamp, double value);

  size_t size() const { return sealed_points_ + tail_.size(); }
  bool empty() const { return size() == 0; }
  size_t sealed_points() const { return sealed_points_; }
  size_t sealed_bytes() const;
  size_t resident_sealed_bytes() const;
  size_t chunk_count() const { return chunks_.size(); }

  // The raw mutable tail. When TailCovers(begin) holds, scanning the tail
  // alone is exact and zero-copy.
  const TimeSeries& tail() const { return tail_; }

  // True if every point at or after `begin` lives in the tail (no sealed
  // chunk overlaps [begin, inf)).
  bool TailCovers(TimePoint begin) const;

  // Seals tail points strictly older than `boundary` into compressed chunks.
  void SealBefore(TimePoint boundary);

  // The one read of stored points: appends, in order, every point of the
  // chunks that end at or after `begin` and then the tail into `out` (which
  // the caller has Clear()ed or whose last point precedes this series).
  // Decoding is chunk-granular: the result may start earlier than `begin`
  // (never later), which window extraction tolerates. A corrupt sealed chunk
  // yields kDataLoss, with `out` holding the points decoded so far, for
  // chunks this process encoded and for mapped payloads that survived a
  // crash/recovery cycle alike. `mapped_decodes`, when non-null, is
  // incremented once per non-resident chunk decoded from the mapped store.
  Status TryMaterializeFrom(TimePoint begin, TimeSeries& out,
                            size_t* mapped_decodes = nullptr) const;

  // Retention: drops all points strictly older than `cutoff`. Whole chunks
  // before the cutoff are freed; a chunk straddling it is decoded (from heap
  // or the mapped store), trimmed, and re-encoded resident with
  // durable_count reset (it must be re-persisted before it can be evicted
  // again).
  void DropBefore(TimePoint cutoff);

  // --- Durable tier (driven by TimeSeriesDatabase; see chunk_store.h) ---

  // Source for non-resident chunk payloads; must be set (and stay alive)
  // before any chunk is restored non-resident or evicted.
  void set_chunk_source(ChunkPayloadSource* source) { chunk_source_ = source; }

  // Recovery: installs one persisted chunk, non-resident, in file order.
  // Re-persisted chunks (grown by a later seal, or trimmed by retention and
  // re-encoded) appear later in the file and supersede what they overlap:
  // previously restored chunks whose range intersects the incoming record
  // are popped. Only valid before any tail appends for this series.
  void RestoreSealedChunk(uint64_t store_offset, uint32_t store_len,
                          uint64_t store_bit_count, uint32_t count, TimePoint first,
                          TimePoint last);

  ChunkInfo GetChunkInfo(size_t index) const;

  // True when chunk `index` holds points the store has not seen (new, grown,
  // or trimmed-and-re-encoded chunks).
  bool ChunkNeedsPersist(size_t index) const;

  // Encoded stream parts of a resident chunk, for persistence.
  const CompressedTimeSeries& ChunkData(size_t index) const;

  // Records a completed persist of chunk `index` covering all current points.
  void MarkChunkDurable(size_t index, uint64_t store_offset, uint32_t store_len,
                        uint64_t store_bit_count);

  // Drops the heap copy of a fully durable resident chunk; returns the heap
  // bytes freed. Readback will decode from the mapped store.
  size_t EvictChunk(size_t index);

 private:
  struct Chunk {
    CompressedTimeSeries data;   // Empty when !resident.
    TimePoint first = 0;
    TimePoint last = 0;
    uint32_t count = 0;
    uint32_t durable_count = 0;
    bool resident = true;
    uint64_t store_offset = 0;
    uint32_t store_len = 0;
    uint64_t store_bit_count = 0;
  };

  Status DecodeChunkInto(const Chunk& chunk, TimeSeries& out,
                         size_t* mapped_decodes) const;

  size_t seal_chunk_points_;
  std::vector<Chunk> chunks_;
  size_t sealed_points_ = 0;
  TimeSeries tail_;
  ChunkPayloadSource* chunk_source_ = nullptr;
};

}  // namespace fbdetect

#endif  // FBDETECT_SRC_TSDB_TIERED_SERIES_H_
