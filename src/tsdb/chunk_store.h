// Per-shard durable chunk file for sealed Gorilla chunks (DESIGN.md §15).
//
// Sealed chunks are immutable once persisted, so the file is append-only: a
// sequence of CRC-framed records, each carrying one chunk's identity, range,
// and encoded Gorilla payload. The file is written at each durable seal and
// read once, when the database opens: every sealed chunk lives on the heap,
// and the file exists to bring it back after a restart.
//
// Record layout (native byte order; host-local storage):
//   u32 magic 'FBCK'   u32 crc (over everything after the crc field)
//   u32 service  u32 kind  u32 entity  u32 metadata   (InternedMetricId)
//   u32 count    u32 payload_len   u64 bit_count
//   i64 first    i64 last
//   payload_len bytes of Gorilla stream
//
// Recovery scans records sequentially, validating magic + CRC, and truncates
// at the first invalid record (the torn tail of an interrupted persist).
// A chunk may be persisted more than once — SealBefore grows the newest chunk
// and retention can trim a chunk's front, and in both cases the grown/trimmed
// chunk is re-appended in full. Restore order is file order, so the LAST
// record for a given range wins; TieredSeries::RestoreSealedChunk implements
// the supersede rule (pop previously restored chunks the incoming record
// overlaps).
#ifndef FBDETECT_SRC_TSDB_CHUNK_STORE_H_
#define FBDETECT_SRC_TSDB_CHUNK_STORE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "src/common/sim_time.h"
#include "src/common/status.h"
#include "src/tsdb/metric_id.h"

namespace fbdetect {

class ChunkStore {
 public:
  struct Stats {
    uint64_t appends = 0;          // Chunk records written since open.
    uint64_t file_bytes = 0;       // Current chunk file size.
    uint64_t restored_chunks = 0;  // Records delivered by Open's restore.
    uint64_t truncated_bytes = 0;  // Torn tail dropped by Open.
  };

  // One restored chunk record, delivered in file order. `payload` is the
  // record's encoded stream, valid only for the duration of the callback.
  struct RestoredChunk {
    InternedMetricId id;
    std::span<const uint8_t> payload;
    uint64_t bit_count = 0;
    uint32_t count = 0;
    TimePoint first = 0;
    TimePoint last = 0;
  };
  using RestoreFn = std::function<void(const RestoredChunk&)>;

  ChunkStore() = default;
  ~ChunkStore();
  ChunkStore(const ChunkStore&) = delete;
  ChunkStore& operator=(const ChunkStore&) = delete;

  // Opens (creating if absent) the chunk file at `path`, reads it whole,
  // validates records sequentially, delivers each through `restore`, and
  // truncates any torn tail so new records append to a clean prefix.
  Status Open(const std::string& path, const RestoreFn& restore, bool fsync);

  // Appends one chunk record. Not synced — callers batch appends and call
  // Sync() once per seal.
  Status Append(const InternedMetricId& id, std::span<const uint8_t> payload,
                uint64_t bit_count, uint32_t count, TimePoint first, TimePoint last);

  // fsync's the chunk file (one call covers all Appends since the last).
  Status Sync();

  const Stats& stats() const { return stats_; }

 private:
  std::string path_;
  int fd_ = -1;
  bool fsync_ = true;
  uint64_t append_offset_ = 0;
  Stats stats_;
};

}  // namespace fbdetect

#endif  // FBDETECT_SRC_TSDB_CHUNK_STORE_H_
