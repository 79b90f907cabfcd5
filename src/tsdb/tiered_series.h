// Tiered storage for one time series: cold history sealed into
// Gorilla-compressed chunks, plus a raw mutable tail that recent writes and
// the zero-copy scan path (ScanView / WindowView) operate on directly.
//
// Every sealed chunk lives on the heap. With the durable tier enabled
// (TsdbOptions::durable) the database also persists each new or changed
// chunk to the shard's chunk file, and a reopened database restores the
// chunks from it (RestoreSealedChunk) as decode-only streams.
//
// Invariants:
//   - Every sealed point is strictly older than every tail point.
//   - Chunks are ordered; chunk timestamps never overlap.
//   - Sealed chunks are immutable except for DropBefore (retention), which
//     drops whole chunks and re-encodes at most the one straddling chunk.
//   - Appends go to the tail only; SealBefore moves tail points into chunks.
//
// Because the Gorilla round trip is bit-exact — for chunks this process
// encoded and for restored ones alike — materializing a tiered series yields
// the byte-identical TimeSeries the raw path would have produced: tiering and
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

class TieredSeries {
 public:
  // Durable-tier metadata for one sealed chunk, exposed so the database can
  // drive persistence without knowing chunk internals.
  struct ChunkInfo {
    TimePoint first = 0;
    TimePoint last = 0;
    uint32_t count = 0;  // Points in the chunk.
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
  size_t chunk_count() const { return chunks_.size(); }

  // The raw mutable tail. When TailCovers(begin) holds, scanning the tail
  // alone is exact and zero-copy.
  const TimeSeries& tail() const { return tail_; }

  // True if every point at or after `begin` lives in the tail (no sealed
  // chunk overlaps [begin, inf)).
  bool TailCovers(TimePoint begin) const;

  // Seals tail points strictly older than `boundary` into compressed chunks,
  // growing the newest chunk while it can take points.
  void SealBefore(TimePoint boundary);

  // The one read of stored points: appends, in order, every point of the
  // chunks that end at or after `begin` and then the tail into `out` (which
  // the caller has Clear()ed or whose last point precedes this series).
  // Decoding is chunk-granular: the result may start earlier than `begin`
  // (never later), which window extraction tolerates. A corrupt sealed chunk
  // yields kDataLoss, with `out` holding the points decoded so far, for
  // chunks this process encoded and for chunks restored from the chunk file
  // alike.
  Status TryMaterializeFrom(TimePoint begin, TimeSeries& out) const;

  // Retention: drops all points strictly older than `cutoff`. Whole chunks
  // before the cutoff are freed; a chunk straddling it is decoded, trimmed,
  // and re-encoded with durable_count reset, so the next durable seal
  // persists it again. A straddling chunk that does not decode is left
  // whole, so its range keeps reading as kDataLoss and later chunks still
  // serve scans.
  void DropBefore(TimePoint cutoff);

  // --- Durable tier (driven by TimeSeriesDatabase; see chunk_store.h) ---

  // Recovery: installs one persisted chunk, in file order, as a heap copy
  // of `payload` (CompressedTimeSeries::FromRaw). A `bit_count` beyond the
  // payload is clamped to it, so a record that overstates its stream reads
  // as a truncated chunk (kDataLoss at decode), not an abort. A restored
  // chunk keeps no encoder state, so the next seal starts a new chunk.
  // Re-persisted chunks (grown by a later seal, or trimmed by retention and
  // re-encoded) appear later in the file and supersede what they overlap:
  // previously restored chunks whose range intersects the incoming record
  // are popped. Only valid before any tail appends for this series.
  void RestoreSealedChunk(std::span<const uint8_t> payload, uint64_t bit_count,
                          uint32_t count, TimePoint first, TimePoint last);

  ChunkInfo GetChunkInfo(size_t index) const;

  // True when chunk `index` holds points the store has not seen (new, grown,
  // or trimmed-and-re-encoded chunks).
  bool ChunkNeedsPersist(size_t index) const;

  // Encoded stream parts of a chunk, for persistence.
  const CompressedTimeSeries& ChunkData(size_t index) const;

  // Records a completed persist of chunk `index` covering all current points.
  void MarkChunkDurable(size_t index);

 private:
  struct Chunk {
    CompressedTimeSeries data;
    TimePoint first = 0;
    TimePoint last = 0;
    uint32_t count = 0;
    uint32_t durable_count = 0;
  };

  size_t seal_chunk_points_;
  std::vector<Chunk> chunks_;
  size_t sealed_points_ = 0;
  TimeSeries tail_;
};

}  // namespace fbdetect

#endif  // FBDETECT_SRC_TSDB_TIERED_SERIES_H_
