// Per-shard durable chunk file for sealed Gorilla chunks (DESIGN.md §15).
//
// Sealed chunks are immutable once persisted, so the file is append-only: a
// sequence of CRC-framed records, each carrying one chunk's identity, range,
// and encoded Gorilla payload. Readback is served through a memory mapping of
// the file — decoding a non-resident chunk walks the mapped payload in place
// via CompressedChunkView, so evicted history costs page cache, not heap.
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
//
// Mapping growth: the file is mapped in generations; when the mapped span no
// longer covers the file, a new, larger mapping is created and the old one is
// kept (never munmap'd) until destruction. Spans handed out by Payload()
// therefore stay valid for the store's lifetime, which is what lets the scan
// path hold decoded-from views across remaps without coordination.
#ifndef FBDETECT_SRC_TSDB_CHUNK_STORE_H_
#define FBDETECT_SRC_TSDB_CHUNK_STORE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "src/common/sim_time.h"
#include "src/common/status.h"
#include "src/tsdb/metric_id.h"
#include "src/tsdb/tiered_series.h"

namespace fbdetect {

class ChunkStore : public ChunkPayloadSource {
 public:
  struct Stats {
    uint64_t appends = 0;          // Chunk records written since open.
    uint64_t append_bytes = 0;     // Record bytes written since open.
    uint64_t file_bytes = 0;       // Current chunk file size.
    uint64_t restored_chunks = 0;  // Records delivered by Open's restore.
    uint64_t truncated_bytes = 0;  // Torn tail dropped by Open.
    uint64_t remaps = 0;           // Mapping generations created.
  };

  // One restored chunk record, delivered in file order. `payload_offset` /
  // `payload_len` locate the encoded stream for later Payload() calls.
  struct RestoredChunk {
    InternedMetricId id;
    uint64_t payload_offset = 0;
    uint32_t payload_len = 0;
    uint64_t bit_count = 0;
    uint32_t count = 0;
    TimePoint first = 0;
    TimePoint last = 0;
  };
  using RestoreFn = std::function<void(const RestoredChunk&)>;

  ChunkStore() = default;
  ~ChunkStore() override;
  ChunkStore(const ChunkStore&) = delete;
  ChunkStore& operator=(const ChunkStore&) = delete;

  // Opens (creating if absent) the chunk file at `path`, validates records
  // sequentially, delivers each through `restore`, and truncates any torn
  // tail so new records append to a clean prefix.
  Status Open(const std::string& path, const RestoreFn& restore, bool fsync);

  // Appends one chunk record; on success fills `payload_offset` with the
  // durable location of the payload (for later Payload() readback). Not
  // synced — callers batch appends and call Sync() once per seal.
  Status Append(const InternedMetricId& id, std::span<const uint8_t> payload,
                uint64_t bit_count, uint32_t count, TimePoint first, TimePoint last,
                uint64_t* payload_offset);

  // fsync's the chunk file (one call covers all Appends since the last) and
  // extends the mapping over the appended records. Write phase only — after
  // it returns, Payload() can serve the new records without mutating any
  // store state, which is what makes Payload() safe for concurrent readers.
  Status Sync();

  // Returns the mapped bytes of a payload written by Append (and Sync'd) or
  // recovered by Open. The span stays valid until the store is destroyed
  // (mappings are never unmapped on growth). Read-only — safe to call from
  // concurrent scan threads. Aborts if the range is outside the mapping.
  std::span<const uint8_t> Payload(uint64_t offset, uint32_t len) const;

  // ChunkPayloadSource for the shard's TieredSeries instances.
  std::span<const uint8_t> ChunkPayload(uint64_t offset, uint32_t len) override {
    return Payload(offset, len);
  }

  const Stats& stats() const { return stats_; }

 private:
  // Ensures the current mapping covers [0, end). May create a new mapping
  // generation; never invalidates previously returned spans.
  Status EnsureMapped(uint64_t end);

  std::string path_;
  int fd_ = -1;
  bool fsync_ = true;
  uint64_t append_offset_ = 0;

  struct Mapping {
    uint8_t* data = nullptr;
    size_t size = 0;
  };
  std::vector<Mapping> mappings_;  // All generations; only back() is current.
  Stats stats_;
};

}  // namespace fbdetect

#endif  // FBDETECT_SRC_TSDB_CHUNK_STORE_H_
