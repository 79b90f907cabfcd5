// Per-shard group-commit write-ahead log for the durable storage tier
// (DESIGN.md §15).
//
// The log is a sequence of CRC-framed commit groups. Writers buffer records
// in memory under the owning shard's mutex; a group commit serializes the
// buffer into ONE frame — header {magic, payload length, CRC32C of the
// payload} followed by the records — written with a single write() and an
// optional fsync(). Torn writes therefore have frame granularity: recovery
// replays whole valid frames and truncates the log at the first frame whose
// magic, length, or CRC does not check out, so the recovered state is always
// an exact prefix of committed groups (never a partial group).
//
// Record kinds:
//   kPoints       — accepted appends for one series: InternedMetricId +
//                   count + (timestamp, value-bits) pairs. Symbol handles are
//                   durable because the database persists its SymbolTable as
//                   an append-only names log replayed (in interning order)
//                   before any shard log.
//   kDropBefore   — a retention cutoff (TimeSeriesDatabase::Expire); replay
//                   applies DropBefore to every series of the shard at the
//                   recorded position in the record stream.
//   kSealBoundary — the boundary of the last durable SealBefore;
//                   informational (recovered as DurableStats metadata so a
//                   reopened database can report where its sealed history
//                   ends).
//
// Checkpointing: sealing persists chunks into the shard's chunk file, after
// which the log's history is redundant. Rewrite() atomically replaces the
// log (temp file + rename) with a single frame — the latest retention
// cutoff, the seal boundary, and a snapshot of every live tail — which
// bounds log length and recovery time by the working set, not the ingest
// history.
//
// Byte order is native (the log is host-local storage, not a wire format).
#ifndef FBDETECT_SRC_TSDB_WAL_H_
#define FBDETECT_SRC_TSDB_WAL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/sim_time.h"
#include "src/common/status.h"
#include "src/tsdb/metric_id.h"

namespace fbdetect {

class WriteAheadLog {
 public:
  struct Stats {
    uint64_t group_commits = 0;    // Frames written (Commit + Rewrite).
    uint64_t rewrites = 0;         // Checkpoint rewrites.
    uint64_t bytes_written = 0;    // Frame bytes written since open.
    uint64_t file_bytes = 0;       // Current log size on disk.
    uint64_t replayed_points = 0;  // Points delivered by Open's replay.
    uint64_t truncated_bytes = 0;  // Torn tail dropped by Open.
  };

  // Replay callbacks, invoked in record order during Open. `symbol` is used
  // only by the database's names log (a WriteAheadLog with string records).
  struct ReplayHandler {
    std::function<void(const InternedMetricId&, std::span<const TimePoint>,
                       std::span<const double>)>
        points;
    std::function<void(TimePoint)> drop_before;
    std::function<void(TimePoint)> seal_boundary;
    std::function<void(std::string_view)> symbol;
  };

  WriteAheadLog() = default;
  ~WriteAheadLog();
  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  // Opens (creating if absent) the log at `path`, replays every valid frame
  // through `handler`, and truncates any torn tail so new frames append to a
  // clean prefix. A CRC-valid frame with malformed records is corruption
  // beyond what a torn write can produce and fails the open.
  Status Open(const std::string& path, const ReplayHandler& handler, bool fsync);

  // --- Buffering (caller serializes; in practice the shard mutex) ---

  void BufferPoints(const InternedMetricId& id, std::span<const TimePoint> timestamps,
                    std::span<const double> values);
  void BufferDropBefore(TimePoint cutoff);
  void BufferSealBoundary(TimePoint boundary);
  void BufferSymbol(std::string_view name);

  size_t pending_bytes() const { return pending_.size(); }

  // Drops buffered-but-uncommitted records. A checkpoint builder calls this
  // first: replay order inside one frame is record order, so stale append
  // records ahead of the tail snapshots would replay as newer-than-snapshot
  // points and make the monotonic append gate reject the snapshots.
  void DiscardPending() { pending_.clear(); }

  // --- Committing ---

  // Writes the buffered records as one CRC-framed group (no-op when the
  // buffer is empty). Group commit: however many records accumulated since
  // the last commit cost one write() + one optional fsync().
  Status Commit();

  // Checkpoint: atomically replaces the whole log with the buffered records
  // (one frame) via temp file + rename. The buffer is consumed even on
  // failure paths that leave the old log in place.
  Status Rewrite();

  const Stats& stats() const { return stats_; }

 private:
  Status WriteFrame(int fd, bool do_fsync);

  std::string path_;
  int fd_ = -1;
  bool fsync_ = true;
  std::vector<uint8_t> pending_;
  Stats stats_;
};

}  // namespace fbdetect

#endif  // FBDETECT_SRC_TSDB_WAL_H_
