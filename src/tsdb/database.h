// In-memory time-series database. The fleet simulator and profilers ingest
// points keyed by MetricId; the detection pipeline scans all series of a
// service. A real deployment would back this with a distributed TSDB (Meta
// uses ODS/Gorilla-class storage); the interface is deliberately the subset
// the detectors need.
//
// Points enter one way: Intern the identity, stage points with
// WriteBatch::Add, then WriteBatch::Commit.
//
// Storage layout (PR 2): metric identity strings are interned into a
// SymbolTable so the hot write path keys on a 16-byte InternedMetricId; the
// series map is split into lock-striped shards so fleet ingestion scales
// across threads; and each series is a TieredSeries — Gorilla-compressed
// sealed history plus a raw mutable tail that preserves the zero-copy
// ScanView contract for the detection windows.
//
// Stored points are read one way: TieredSeries::TryMaterializeFrom, which
// decodes sealed chunks recoverably and caches nothing. SeriesForScan serves
// the scan and cost shift through it (or returns the raw tail zero-copy);
// Find returns an owned copy of a whole series for tests and benches.
// Sealed history has one home, the heap: the durable tier's chunk files are
// written at each seal and read once, when the database opens.
//
// Thread-safety: concurrent writers are safe (per-shard mutexes; the symbol
// table has its own lock). Readers that hold raw pointers or spans into
// series storage (SeriesForScan, ScanView) must not run concurrently
// with writers — same single-writer-or-many-readers phase discipline as
// PR 1, now enforced per scan phase rather than per call.
#ifndef FBDETECT_SRC_TSDB_DATABASE_H_
#define FBDETECT_SRC_TSDB_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/sim_time.h"
#include "src/common/status.h"
#include "src/observe/telemetry.h"
#include "src/tsdb/chunk_store.h"
#include "src/tsdb/metric_id.h"
#include "src/tsdb/symbol_table.h"
#include "src/tsdb/tiered_series.h"
#include "src/tsdb/timeseries.h"
#include "src/tsdb/wal.h"

namespace fbdetect {

class TimeSeriesDatabase;

// Durable storage tier (DESIGN.md §15). When `directory` is set, every shard
// gets a group-commit write-ahead log and a chunk file there; opening the
// database replays both into a consistent state (symbols first, then chunks
// onto the heap, then each shard's log). Durability is group-granular: points
// buffered since the last group commit are lost on a crash, never torn.
struct DurableOptions {
  // Empty = durable tier disabled.
  std::string directory;
  // Pending WAL bytes that trigger an automatic group commit on the write
  // path. Commits also happen at every seal (checkpoint) and on SyncDurable.
  size_t group_commit_bytes = 256 * 1024;
  // fsync after commits and chunk persists. Tests that only exercise logical
  // recovery (clean close + reopen) can turn this off for speed.
  bool fsync = true;

  bool enabled() const { return !directory.empty(); }
};

struct TsdbOptions {
  // Number of lock-striped shards; rounded up to a power of two. 1 gives the
  // unsharded behavior (useful for baselines and small tests).
  size_t shard_count = 16;
  // Target points per sealed Gorilla chunk.
  size_t seal_chunk_points = 1024;
  DurableOptions durable;
};

// A batch of points staged for one Commit() into the database. Points are
// staged into one column per metric; the id -> column index survives Commit,
// so a long-lived batch (one ingest worker ticking a service) pays the
// id lookup against a small hot map and the database-side hash lookup only
// once per series per flush. Columns are grouped by destination shard, so
// Commit locks each touched shard exactly once regardless of batch size.
// Per-metric timestamps must be added in increasing order (the fleet
// simulator's tick loop does this naturally). Not thread-safe; each ingest
// worker owns its own batch.
class WriteBatch {
 public:
  explicit WriteBatch(TimeSeriesDatabase* db);

  // Stages one point of a series interned by this batch's database.
  void Add(const InternedMetricId& id, TimePoint timestamp, double value);

  // Applies all staged points and clears the staged data (the id -> column
  // mapping and vector capacities are retained for the next fill).
  void Commit();

  // Invokes `fn` once per staged column with mutable access to its parallel
  // timestamp/value vectors (same length before and, enforced, after). The
  // fault-injection harness uses this to corrupt staged telemetry between
  // generation and Commit; point_count() is recomputed afterwards. Columns
  // whose vectors `fn` reorders or de-dupes are the caller's problem — the
  // database classifies each point at Apply time anyway.
  void MutateColumns(
      const std::function<void(const InternedMetricId&, std::vector<TimePoint>&,
                               std::vector<double>&)>& fn);

  size_t point_count() const { return point_count_; }
  bool empty() const { return point_count_ == 0; }
  TimeSeriesDatabase* db() const { return db_; }

 private:
  friend class TimeSeriesDatabase;

  struct Column {
    InternedMetricId id;
    std::vector<TimePoint> timestamps;
    std::vector<double> values;
  };

  TimeSeriesDatabase* db_;
  std::vector<Column> columns_;
  // Column indices grouped by destination shard.
  std::vector<std::vector<uint32_t>> per_shard_;
  std::unordered_map<InternedMetricId, uint32_t, InternedMetricIdHash> column_index_;
  size_t point_count_ = 0;
};

class TimeSeriesDatabase {
 public:
  struct MemoryStats {
    size_t raw_points = 0;     // Points in mutable tails.
    size_t sealed_points = 0;  // Points in Gorilla chunks.
    // Compressed bytes of sealed history; every sealed chunk is on the heap.
    size_t resident_sealed_bytes = 0;
    // What the sealed points would occupy as raw (timestamp, value) pairs.
    size_t sealed_raw_bytes() const { return sealed_points * 16; }
  };

  // Durable-tier observability. All counters are runtime telemetry (they
  // depend on commit batching and crash history, not on detection inputs);
  // the registry carries them as tsdb.durable.* with kRuntime stability.
  struct DurableStats {
    bool enabled = false;
    uint64_t group_commits = 0;         // WAL frames written (all shards).
    uint64_t checkpoint_rewrites = 0;   // WAL checkpoint rewrites.
    uint64_t log_bytes = 0;             // Current WAL bytes (incl. symbols log).
    uint64_t log_bytes_written = 0;     // WAL bytes written since open.
    uint64_t chunk_file_bytes = 0;      // Current chunk-file bytes.
    uint64_t chunks_persisted = 0;      // Chunk records appended since open.
    // Recovery: what the constructor's replay found.
    uint64_t recoveries = 0;            // 1 if this open replayed prior state.
    uint64_t recovered_points = 0;      // Points replayed from WALs.
    uint64_t recovered_chunks = 0;      // Chunk records restored.
    uint64_t recovered_truncated_bytes = 0;  // Torn-tail bytes dropped.
    TimePoint last_seal_boundary = 0;   // From the newest checkpoint.
    TimePoint last_drop_cutoff = 0;     // From the newest retention record.
    // Durable I/O failures observed (write/fsync/rename/open). The first one
    // flips `degraded`: the tier stops issuing durable I/O and the database
    // keeps running memory-only (see durable_degraded()).
    uint64_t io_errors = 0;
    bool degraded = false;
  };
  DurableStats durable_stats() const;

  // True once a durable-tier I/O failure has switched the database to
  // memory-only tiering: no further WAL commits, chunk persists, or
  // checkpoint rewrites. Sealed history is on the heap either way, so
  // ingest, scans, seals, and retention all keep working — losing the
  // durable tier must not take down detection.
  bool durable_degraded() const {
    return durable_degraded_.load(std::memory_order_relaxed);
  }

  // Read-path observability: how SeriesForScan calls are actually served by
  // the tiered storage. One relaxed atomic increment per lookup (not per
  // point), so the accounting is always on. All values count events the
  // readers issued, not scheduling artifacts — the pipeline's per-series scan
  // issues exactly one SeriesForScan per series per re-run, and cost shift
  // one per member of each domain it measures, regardless of scan_threads —
  // so these are deterministic telemetry (tsdb.scan.* in the registry). Find
  // counts nothing here.
  struct ScanStats {
    uint64_t tail_hits = 0;        // SeriesForScan served zero-copy from the tail.
    uint64_t sealed_decodes = 0;   // SeriesForScan decoded sealed chunks.
    uint64_t decode_failures = 0;  // Recoverable sealed-chunk decode errors.
    uint64_t misses = 0;           // SeriesForScan on an absent series (interned or not).
    uint64_t list_cache_hits = 0;    // ListMetrics served from the cache.
    uint64_t list_cache_misses = 0;  // ListMetrics re-enumerated every shard.
  };
  ScanStats scan_stats() const;

  TimeSeriesDatabase() : TimeSeriesDatabase(TsdbOptions{}) {}
  // With durable options set, the constructor recovers prior on-disk state:
  // symbols log, then each shard's chunk file, then each shard's WAL (torn
  // tails truncated). Recovered state is always an exact prefix of committed
  // groups. Durable I/O failures never abort: the tier degrades to
  // memory-only (durable_degraded()), counted in DurableStats::io_errors.
  explicit TimeSeriesDatabase(const TsdbOptions& options);
  ~TimeSeriesDatabase();
  TimeSeriesDatabase(const TimeSeriesDatabase&) = delete;
  TimeSeriesDatabase& operator=(const TimeSeriesDatabase&) = delete;

  // --- Identity interning ---

  // Interns all string components of `id` (creating symbols on first sight).
  InternedMetricId Intern(const MetricId& id);
  // Read-only interning: nullopt if any component string has never been
  // interned (the series cannot exist). Never creates symbols, so it is safe
  // on the read path.
  std::optional<InternedMetricId> TryIntern(const MetricId& id) const;
  // Recovers the canonical MetricId of an interned key.
  MetricId Resolve(const InternedMetricId& id) const;
  const SymbolTable& symbols() const { return symbols_; }

  // --- Ingest rejects ---

  // Fleet telemetry is dirty: retransmitted buffers duplicate points, delayed
  // buffers arrive behind newer data. Commit drops a point whose timestamp is
  // at or before the newest stored point of its series and counts it once,
  // on that series. Invokes `fn(id, dropped_duplicate, dropped_out_of_order)`
  // for every series that has dropped at least one point, in canonical
  // MetricId order. The pipeline folds these into its quarantine report.
  void ForEachIngestReject(
      const std::function<void(const MetricId&, uint64_t, uint64_t)>& fn) const;

  // --- Lookup ---

  // An owned copy of the whole series (sealed history decoded, then the
  // tail); empty when the series is absent or its sealed history fails to
  // decode. Nothing is cached and nothing is counted.
  std::optional<TimeSeries> Find(const MetricId& id) const;

  bool Contains(const InternedMetricId& id) const;

  // Scan-path lookup for points in [begin, inf). If the raw tail covers the
  // range, returns the tail directly — zero-copy, identical to the PR 1 fast
  // path. Otherwise decodes the overlapping sealed chunks into `scratch`
  // (clearing it first; chunk-granular, so the result may extend earlier
  // than `begin`) and returns &scratch. Returns nullptr with *status Ok when
  // the series is absent (a miss, whether or not its names were ever
  // interned), and nullptr with *status kDataLoss when its sealed history
  // fails to decode.
  const TimeSeries* SeriesForScan(const MetricId& id, TimePoint begin,
                                  TimeSeries& scratch, Status* status) const;
  const TimeSeries* SeriesForScan(const InternedMetricId& id, TimePoint begin,
                                  TimeSeries& scratch, Status* status) const;

  // All metric IDs in canonical order, optionally filtered by service
  // (empty = all). Cached per service and rebuilt whole when generation()
  // moved, so repeated calls between mutations are O(copy). A service name
  // the symbol table does not know returns an empty list without touching
  // the cache or its counters.
  std::vector<MetricId> ListMetrics(const std::string& service = {}) const;

  // All metric IDs of a given kind within a service.
  std::vector<MetricId> ListMetricsOfKind(const std::string& service, MetricKind kind) const;

  size_t metric_count() const;
  size_t total_points() const;
  MemoryStats memory_stats() const;
  size_t shard_count() const { return shards_.size(); }

  // Seals all points strictly older than `boundary` into compressed chunks.
  // Invalidates outstanding spans/pointers into the affected tails.
  // With the durable tier on, sealing is also the checkpoint: new/grown
  // chunks are persisted to the chunk file (one fsync per shard) and each
  // shard's WAL is rewritten to {retention cutoff, seal boundary, tail
  // snapshots}.
  void SealBefore(TimePoint boundary);

  // Applies retention: drops points older than `cutoff` and removes metrics
  // that become empty. With the durable tier on, the cutoff is group-
  // committed to every shard's WAL so recovery cannot resurrect dropped
  // points.
  void Expire(TimePoint cutoff);

  // Durable tier: group-commits all buffered WAL records (symbols first) so
  // everything accepted so far survives a crash. No-op when disabled. Also
  // runs on destruction, so a clean close loses nothing.
  void SyncDurable();

  // The database's own instruments (DESIGN.md §12): tsdb.scan.* always, and
  // tsdb.durable.* / tsdb.memory.* when the durable tier is on. Events are
  // counted where they happen; totals derived from per-file WAL/chunk stats
  // and per-series sizes are Set at the end of the write-phase call that
  // changed them (Commit when it group-commits, SealBefore, Expire,
  // SyncDurable, recovery), so reading the registry never takes a shard lock.
  const TelemetryRegistry& telemetry() const { return telemetry_; }

  // Bumped on every mutation (Commit/SealBefore/Expire).
  // Readers that cache derived data — e.g. ListMetrics' sorted per-service
  // lists — or that hold zero-copy spans into series storage compare
  // generations to decide whether their view is still valid. Monotonic
  // (sum of per-shard counters); never changed by reads.
  uint64_t generation() const;

 private:
  friend class WriteBatch;

  struct SeriesEntry {
    explicit SeriesEntry(size_t seal_chunk_points) : data(seal_chunk_points) {}
    TieredSeries data;
    // Points rejected by TryAppend for this series (dirty telemetry).
    uint64_t rejected_duplicate = 0;
    uint64_t rejected_out_of_order = 0;
  };

  struct Shard {
    mutable std::mutex mutex;
    std::atomic<uint64_t> generation{0};
    std::unordered_map<InternedMetricId, SeriesEntry, InternedMetricIdHash> series;
    // Durable tier (null when disabled). Guarded by `mutex`; readers never
    // touch either file.
    std::unique_ptr<WriteAheadLog> wal;
    std::unique_ptr<ChunkStore> chunk_store;
  };

  // Per-service ListMetrics cache entry: the sorted ids and the generation()
  // they were built at.
  struct ListCacheEntry {
    uint64_t generation = 0;
    std::vector<MetricId> ids;  // Canonical order.
  };

  size_t ShardIndex(const InternedMetricId& id) const {
    return InternedMetricIdHash{}(id) & shard_mask_;
  }

  // Returns the entry for `id` in `shard`, creating it if absent. Caller
  // holds the shard mutex.
  SeriesEntry& EntryLocked(Shard& shard, const InternedMetricId& id);

  // The one write path, run by WriteBatch::Commit: classifies each staged
  // point as new, duplicate or out of order, logs the stored ones to the
  // WAL, group-commits and bumps the generation, locking each touched shard
  // once.
  void Apply(WriteBatch& batch);

  // Appends one point, counting a rejection on the series. Caller holds the
  // shard mutex. Returns true iff the point was stored.
  static bool AppendCounted(SeriesEntry& entry, TimePoint timestamp, double value);

  // With the durable tier on, buffers the tail suffix [tail_before,
  // tail.size()) — the points Apply just stored — into the shard's WAL.
  // Caller holds the shard mutex.
  void LogAppendLocked(Shard& shard, const InternedMetricId& id,
                       const SeriesEntry& entry, size_t tail_before);

  // --- Durable tier internals ---

  // Durable tier configured and not degraded by an earlier I/O failure.
  bool DurableActive() const {
    return options_.durable.enabled() &&
           !durable_degraded_.load(std::memory_order_relaxed);
  }

  // Records a durable I/O failure: counts it and, on the first one, flips the
  // database to memory-only tiering (with one stderr warning). Returns
  // status.ok() so call sites read `if (!HandleDurableError(op())) ...`.
  bool HandleDurableError(const Status& status);

  // Opens (and replays) the symbols log, every shard's chunk file, and every
  // shard's WAL. Constructor-only, single-threaded. An I/O failure degrades
  // to memory-only and stops opening (later shards keep null wal/chunk_store;
  // every durable call site tolerates both).
  void OpenDurable();

  // Appends any not-yet-logged symbols to the symbols log and commits it.
  // Must run before committing any shard WAL or chunk file referencing those
  // symbols (symbol records are replayed first on recovery, in interning
  // order, which reproduces identical dense ids). Leaf lock.
  void CommitSymbols();

  // Group-commits the shard's WAL when the pending buffer crossed the
  // group-commit threshold; returns whether it tried. Caller holds the shard
  // mutex.
  bool MaybeGroupCommitLocked(Shard& shard);

  // Sets the tsdb.durable.* totals from the per-file stats and, with
  // `memory`, the tsdb.memory.* gauges (a pass over every series). No-op
  // without the durable tier. Write phase only, with no shard lock held.
  void PublishDurableTotals(bool memory);

  TsdbOptions options_;
  size_t shard_mask_ = 0;
  SymbolTable symbols_;
  std::vector<Shard> shards_;

  // Durable tier (members valid only when options_.durable.enabled()).
  std::unique_ptr<WriteAheadLog> symbols_log_;
  mutable std::mutex symbols_log_mutex_;
  size_t symbols_logged_ = 0;  // Symbols already in the log. Guarded above.
  TimePoint last_seal_boundary_ = 0;   // Write phase only.
  TimePoint last_drop_cutoff_ = 0;     // Write phase only.
  bool have_drop_cutoff_ = false;
  std::atomic<bool> durable_degraded_{false};
  uint64_t recovered_chunks_ = 0;           // Set once by OpenDurable.
  uint64_t recovered_truncated_bytes_ = 0;  // Set once by OpenDurable.

  mutable std::mutex list_cache_mutex_;
  mutable std::unordered_map<std::string, ListCacheEntry> list_cache_;

  TelemetryRegistry telemetry_;
  // Read path (tsdb.scan.*, deterministic). Bumped from const methods.
  struct ScanCounters {
    Counter* tail_hits = nullptr;
    Counter* sealed_decodes = nullptr;
    Counter* decode_failures = nullptr;
    Counter* misses = nullptr;
    Counter* list_cache_hits = nullptr;
    Counter* list_cache_misses = nullptr;
  } scan_counters_;
  // Durable tier (tsdb.durable.* / tsdb.memory.*, kRuntime); all null when
  // the tier is off.
  struct DurableCounters {
    // Events, counted where they happen.
    Counter* io_errors = nullptr;
    Counter* recoveries = nullptr;
    Counter* recovered_points = nullptr;
    // Totals Set by PublishDurableTotals.
    Counter* group_commits = nullptr;
    Counter* checkpoint_rewrites = nullptr;
    Counter* log_bytes = nullptr;
    Counter* chunk_file_bytes = nullptr;
    Counter* chunks_persisted = nullptr;
    Counter* degraded = nullptr;  // 0/1 gauge.
    Counter* resident_sealed_bytes = nullptr;
  } durable_counters_;
  // Serializes concurrent writers' PublishDurableTotals so the last one to
  // run leaves the freshest totals.
  std::mutex publish_mutex_;
};

}  // namespace fbdetect

#endif  // FBDETECT_SRC_TSDB_DATABASE_H_
