#include "src/tsdb/database.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>

#include "src/common/check.h"

namespace fbdetect {
namespace {

size_t RoundUpPow2(size_t value) {
  size_t pow2 = 1;
  while (pow2 < value) {
    pow2 <<= 1;
  }
  return pow2;
}

}  // namespace

// --- WriteBatch ---

WriteBatch::WriteBatch(TimeSeriesDatabase* db)
    : db_(db), per_shard_(db->shard_count()) {}

void WriteBatch::Add(const InternedMetricId& id, TimePoint timestamp, double value) {
  const auto [it, inserted] =
      column_index_.try_emplace(id, static_cast<uint32_t>(columns_.size()));
  if (inserted) {
    columns_.push_back(Column{id, {}, {}});
    per_shard_[db_->ShardIndex(id)].push_back(it->second);
  }
  Column& column = columns_[it->second];
  column.timestamps.push_back(timestamp);
  column.values.push_back(value);
  ++point_count_;
}

void WriteBatch::MutateColumns(
    const std::function<void(const InternedMetricId&, std::vector<TimePoint>&,
                             std::vector<double>&)>& fn) {
  size_t points = 0;
  for (Column& column : columns_) {
    fn(column.id, column.timestamps, column.values);
    FBD_CHECK(column.timestamps.size() == column.values.size());
    points += column.timestamps.size();
  }
  point_count_ = points;
}

void WriteBatch::Commit() {
  if (point_count_ > 0) {
    db_->Apply(*this);
  }
  for (Column& column : columns_) {
    column.timestamps.clear();  // Keeps capacity (and the id mapping) for
    column.values.clear();      // the next fill.
  }
  point_count_ = 0;
}

// --- TimeSeriesDatabase ---

TimeSeriesDatabase::TimeSeriesDatabase(const TsdbOptions& options)
    : options_(options),
      shards_(RoundUpPow2(std::max<size_t>(1, options.shard_count))) {
  shard_mask_ = shards_.size() - 1;
  scan_counters_ = ScanCounters{
      .tail_hits = telemetry_.GetCounter("tsdb.scan.tail_hits"),
      .sealed_decodes = telemetry_.GetCounter("tsdb.scan.sealed_decodes"),
      .decode_failures = telemetry_.GetCounter("tsdb.scan.decode_failures"),
      .misses = telemetry_.GetCounter("tsdb.scan.misses"),
      .list_cache_hits = telemetry_.GetCounter("tsdb.scan.list_cache_hits"),
      .list_cache_misses = telemetry_.GetCounter("tsdb.scan.list_cache_misses"),
  };
  if (options_.durable.enabled()) {
    const auto runtime = [this](const char* name) {
      return telemetry_.GetCounter(name, CounterStability::kRuntime);
    };
    durable_counters_ = DurableCounters{
        .io_errors = runtime("tsdb.durable.io_errors"),
        .recoveries = runtime("tsdb.durable.recoveries"),
        .recovered_points = runtime("tsdb.durable.recovered_points"),
        .group_commits = runtime("tsdb.durable.group_commits"),
        .checkpoint_rewrites = runtime("tsdb.durable.checkpoint_rewrites"),
        .log_bytes = runtime("tsdb.durable.log_bytes"),
        .chunk_file_bytes = runtime("tsdb.durable.chunk_file_bytes"),
        .chunks_persisted = runtime("tsdb.durable.chunks_persisted"),
        .degraded = runtime("tsdb.durable.degraded"),
        .resident_sealed_bytes = runtime("tsdb.memory.resident_sealed_bytes"),
    };
    OpenDurable();
    PublishDurableTotals(/*memory=*/true);
  }
}

TimeSeriesDatabase::~TimeSeriesDatabase() { SyncDurable(); }

bool TimeSeriesDatabase::HandleDurableError(const Status& status) {
  if (status.ok()) {
    return true;
  }
  durable_counters_.io_errors->Increment();
  if (!durable_degraded_.exchange(true, std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "durable tier degraded to memory-only after I/O failure: %s\n",
                 status.message().c_str());
    std::fflush(stderr);
  }
  return false;
}

void TimeSeriesDatabase::OpenDurable() {
  const std::string& dir = options_.durable.directory;
  const bool fsync = options_.durable.fsync;
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    HandleDurableError(Status::Internal("mkdir failed for " + dir + ": " +
                                        std::strerror(errno)));
    return;
  }
  // Symbols first: replaying the names log in append (= interning) order
  // reproduces the identical dense ids every chunk and WAL record refers to.
  symbols_log_ = std::make_unique<WriteAheadLog>();
  WriteAheadLog::ReplayHandler symbol_handler;
  symbol_handler.symbol = [this](std::string_view name) { symbols_.Intern(name); };
  if (!HandleDurableError(symbols_log_->Open(dir + "/symbols.log", symbol_handler, fsync))) {
    return;
  }
  symbols_logged_ = symbols_.size();  // Includes the pre-interned "".

  const auto symbols_known = [this](const InternedMetricId& id) {
    const size_t n = symbols_.size();
    return id.service < n && id.entity < n && id.metadata < n;
  };
  bool recovered_any = symbols_logged_ > 1;
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = shards_[i];
    const std::string suffix = std::string(".").append(std::to_string(i));
    shard.chunk_store = std::make_unique<ChunkStore>();
    shard.wal = std::make_unique<WriteAheadLog>();
    // Sealed history: restore chunk records onto the heap in file order.
    // Re-persisted chunks (grown or retention-trimmed) appear later and
    // supersede what they overlap (TieredSeries::RestoreSealedChunk). Records
    // whose symbols the names log does not know cannot have been committed by
    // a correct writer (symbols are fsync'd first); skipping them is
    // belt-and-braces.
    const Status chunks_opened = shard.chunk_store->Open(
        dir + "/chunks" + suffix,
        [this, &shard, &symbols_known](const ChunkStore::RestoredChunk& chunk) {
          if (!symbols_known(chunk.id) || chunk.count == 0) {
            return;
          }
          SeriesEntry& entry = EntryLocked(shard, chunk.id);
          entry.data.RestoreSealedChunk(chunk.payload, chunk.bit_count, chunk.count,
                                        chunk.first, chunk.last);
        },
        fsync);
    if (!HandleDurableError(chunks_opened)) {
      return;
    }
    // Then the log: the checkpoint frame (retention cutoff, seal boundary,
    // tail snapshots) followed by post-checkpoint appends. Replay is not
    // ingest — outcomes are not counted, and points at or before restored
    // sealed history (tail snapshots overlapping chunks) skip naturally.
    WriteAheadLog::ReplayHandler handler;
    handler.points = [this, &shard, &symbols_known](const InternedMetricId& id,
                                                    std::span<const TimePoint> timestamps,
                                                    std::span<const double> values) {
      if (!symbols_known(id)) {
        return;
      }
      SeriesEntry& entry = EntryLocked(shard, id);
      for (size_t k = 0; k < timestamps.size(); ++k) {
        (void)entry.data.TryAppend(timestamps[k], values[k]);
      }
    };
    handler.drop_before = [this, &shard](TimePoint cutoff) {
      for (auto& [id, entry] : shard.series) {
        entry.data.DropBefore(cutoff);
      }
      last_drop_cutoff_ = std::max(last_drop_cutoff_, cutoff);
      have_drop_cutoff_ = true;
    };
    handler.seal_boundary = [this](TimePoint boundary) {
      last_seal_boundary_ = std::max(last_seal_boundary_, boundary);
    };
    if (!HandleDurableError(shard.wal->Open(dir + "/wal" + suffix, handler, fsync))) {
      return;
    }
    // A replayed retention record can empty a series entirely.
    for (auto it = shard.series.begin(); it != shard.series.end();) {
      it = it->second.data.empty() ? shard.series.erase(it) : std::next(it);
    }
    const WriteAheadLog::Stats& wal_stats = shard.wal->stats();
    const ChunkStore::Stats& chunk_stats = shard.chunk_store->stats();
    durable_counters_.recovered_points->Add(wal_stats.replayed_points);
    recovered_chunks_ += chunk_stats.restored_chunks;
    recovered_truncated_bytes_ += wal_stats.truncated_bytes + chunk_stats.truncated_bytes;
    recovered_any = recovered_any || wal_stats.replayed_points > 0 ||
                    chunk_stats.restored_chunks > 0;
  }
  durable_counters_.recoveries->Add(recovered_any ? 1 : 0);
}

void TimeSeriesDatabase::CommitSymbols() {
  if (!symbols_log_ || !DurableActive()) {
    return;
  }
  std::lock_guard<std::mutex> lock(symbols_log_mutex_);
  const size_t total = symbols_.size();
  for (size_t i = symbols_logged_; i < total; ++i) {
    symbols_log_->BufferSymbol(symbols_.Name(static_cast<uint32_t>(i)));
  }
  symbols_logged_ = total;
  if (symbols_log_->pending_bytes() > 0) {
    HandleDurableError(symbols_log_->Commit());
  }
}

bool TimeSeriesDatabase::MaybeGroupCommitLocked(Shard& shard) {
  if (shard.wal == nullptr || !DurableActive() ||
      shard.wal->pending_bytes() < options_.durable.group_commit_bytes) {
    return false;
  }
  // Symbols must reach disk before any record that references them.
  CommitSymbols();
  HandleDurableError(shard.wal->Commit());
  return true;
}

void TimeSeriesDatabase::SyncDurable() {
  if (!DurableActive()) {
    return;
  }
  CommitSymbols();
  for (Shard& shard : shards_) {
    if (!DurableActive()) {
      break;  // A commit above just degraded the tier.
    }
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.wal != nullptr && shard.wal->pending_bytes() > 0) {
      HandleDurableError(shard.wal->Commit());
    }
  }
  PublishDurableTotals(/*memory=*/false);
}

void TimeSeriesDatabase::PublishDurableTotals(bool memory) {
  const DurableCounters& c = durable_counters_;
  if (c.group_commits == nullptr) {
    return;
  }
  std::lock_guard<std::mutex> lock(publish_mutex_);
  const DurableStats durable = durable_stats();
  c.group_commits->Set(durable.group_commits);
  c.checkpoint_rewrites->Set(durable.checkpoint_rewrites);
  c.log_bytes->Set(durable.log_bytes);
  c.chunk_file_bytes->Set(durable.chunk_file_bytes);
  c.chunks_persisted->Set(durable.chunks_persisted);
  c.degraded->Set(durable.degraded ? 1 : 0);
  if (memory) {
    c.resident_sealed_bytes->Set(memory_stats().resident_sealed_bytes);
  }
}

InternedMetricId TimeSeriesDatabase::Intern(const MetricId& id) {
  return InternedMetricId{symbols_.Intern(id.service), id.kind,
                          symbols_.Intern(id.entity), symbols_.Intern(id.metadata)};
}

std::optional<InternedMetricId> TimeSeriesDatabase::TryIntern(
    const MetricId& id) const {
  const auto service = symbols_.Find(id.service);
  const auto entity = symbols_.Find(id.entity);
  const auto metadata = symbols_.Find(id.metadata);
  if (!service || !entity || !metadata) {
    return std::nullopt;
  }
  return InternedMetricId{*service, id.kind, *entity, *metadata};
}

MetricId TimeSeriesDatabase::Resolve(const InternedMetricId& id) const {
  return MetricId{symbols_.Name(id.service), id.kind, symbols_.Name(id.entity),
                  symbols_.Name(id.metadata)};
}

TimeSeriesDatabase::SeriesEntry& TimeSeriesDatabase::EntryLocked(
    Shard& shard, const InternedMetricId& id) {
  auto it = shard.series.find(id);
  if (it == shard.series.end()) {
    it = shard.series.emplace(id, SeriesEntry(options_.seal_chunk_points)).first;
  }
  return it->second;
}

bool TimeSeriesDatabase::AppendCounted(SeriesEntry& entry, TimePoint timestamp,
                                       double value) {
  switch (entry.data.TryAppend(timestamp, value)) {
    case AppendOutcome::kAppended:
      return true;
    case AppendOutcome::kDuplicate:
      ++entry.rejected_duplicate;
      return false;
    case AppendOutcome::kOutOfOrder:
      ++entry.rejected_out_of_order;
      return false;
  }
  return false;  // Unreachable.
}

void TimeSeriesDatabase::LogAppendLocked(Shard& shard, const InternedMetricId& id,
                                         const SeriesEntry& entry, size_t tail_before) {
  // Degraded tier: stop buffering — nothing will ever commit the buffer, so
  // feeding it would grow pending bytes without bound.
  if (shard.wal == nullptr || !DurableActive()) {
    return;
  }
  const TimeSeries& tail = entry.data.tail();
  if (tail.size() <= tail_before) {
    return;  // Nothing accepted (appends go to the tail only).
  }
  const size_t count = tail.size() - tail_before;
  shard.wal->BufferPoints(
      id, std::span<const TimePoint>(tail.timestamps()).subspan(tail_before, count),
      std::span<const double>(tail.values()).subspan(tail_before, count));
}

void TimeSeriesDatabase::Apply(WriteBatch& batch) {
  FBD_CHECK(batch.db_ == this);
  bool committed = false;
  for (size_t shard_index = 0; shard_index < batch.per_shard_.size(); ++shard_index) {
    const std::vector<uint32_t>& column_indices = batch.per_shard_[shard_index];
    if (column_indices.empty()) {
      continue;
    }
    Shard& shard = shards_[shard_index];
    std::lock_guard<std::mutex> lock(shard.mutex);
    bool changed = false;
    for (const uint32_t column_index : column_indices) {
      const WriteBatch::Column& column = batch.columns_[column_index];
      if (column.timestamps.empty()) {
        continue;  // Staged in an earlier fill of this batch, idle since.
      }
      SeriesEntry& entry = EntryLocked(shard, column.id);
      const size_t tail_before = entry.data.tail().size();
      bool stored = false;
      for (size_t i = 0; i < column.timestamps.size(); ++i) {
        stored |= AppendCounted(entry, column.timestamps[i], column.values[i]);
      }
      if (stored) {
        changed = true;
        LogAppendLocked(shard, column.id, entry, tail_before);
      }
    }
    if (changed) {
      shard.generation.fetch_add(1, std::memory_order_relaxed);
    }
    committed |= MaybeGroupCommitLocked(shard);
  }
  if (committed) {
    PublishDurableTotals(/*memory=*/false);
  }
}

void TimeSeriesDatabase::ForEachIngestReject(
    const std::function<void(const MetricId&, uint64_t, uint64_t)>& fn) const {
  struct Reject {
    MetricId id;
    uint64_t duplicate;
    uint64_t out_of_order;
  };
  std::vector<Reject> rejects;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [id, entry] : shard.series) {
      if (entry.rejected_duplicate > 0 || entry.rejected_out_of_order > 0) {
        rejects.push_back(
            Reject{Resolve(id), entry.rejected_duplicate, entry.rejected_out_of_order});
      }
    }
  }
  std::sort(rejects.begin(), rejects.end(),
            [](const Reject& a, const Reject& b) { return a.id < b.id; });
  for (const Reject& reject : rejects) {
    fn(reject.id, reject.duplicate, reject.out_of_order);
  }
}

std::optional<TimeSeries> TimeSeriesDatabase::Find(const MetricId& id) const {
  const auto interned = TryIntern(id);
  if (!interned) {
    return std::nullopt;
  }
  const Shard& shard = shards_[ShardIndex(*interned)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.series.find(*interned);
  if (it == shard.series.end()) {
    return std::nullopt;
  }
  TimeSeries series;
  const Status status =
      it->second.data.TryMaterializeFrom(std::numeric_limits<TimePoint>::min(), series);
  if (!status.ok()) {
    return std::nullopt;
  }
  return series;
}

bool TimeSeriesDatabase::Contains(const InternedMetricId& id) const {
  const Shard& shard = shards_[ShardIndex(id)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.series.contains(id);
}

const TimeSeries* TimeSeriesDatabase::SeriesForScan(const MetricId& id, TimePoint begin,
                                                    TimeSeries& scratch,
                                                    Status* status) const {
  const auto interned = TryIntern(id);
  if (!interned) {
    // Never-interned names: absent, not corrupt, and a miss like any other
    // absent series, so the count does not depend on what else was interned.
    *status = Status::Ok();
    scan_counters_.misses->Increment();
    return nullptr;
  }
  return SeriesForScan(*interned, begin, scratch, status);
}

const TimeSeries* TimeSeriesDatabase::SeriesForScan(const InternedMetricId& id,
                                                    TimePoint begin, TimeSeries& scratch,
                                                    Status* status) const {
  *status = Status::Ok();
  const Shard& shard = shards_[ShardIndex(id)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.series.find(id);
  if (it == shard.series.end()) {
    scan_counters_.misses->Increment();
    return nullptr;
  }
  const TieredSeries& data = it->second.data;
  if (data.TailCovers(begin)) {
    scan_counters_.tail_hits->Increment();
    return &data.tail();  // Zero-copy hot path: the scan range is all raw.
  }
  scan_counters_.sealed_decodes->Increment();
  scratch.Clear();
  *status = data.TryMaterializeFrom(begin, scratch);
  if (!status->ok()) {
    scan_counters_.decode_failures->Increment();
    return nullptr;
  }
  return &scratch;
}

TimeSeriesDatabase::ScanStats TimeSeriesDatabase::scan_stats() const {
  const ScanCounters& c = scan_counters_;
  ScanStats stats;
  stats.tail_hits = c.tail_hits->value();
  stats.sealed_decodes = c.sealed_decodes->value();
  stats.decode_failures = c.decode_failures->value();
  stats.misses = c.misses->value();
  stats.list_cache_hits = c.list_cache_hits->value();
  stats.list_cache_misses = c.list_cache_misses->value();
  return stats;
}

std::vector<MetricId> TimeSeriesDatabase::ListMetrics(const std::string& service) const {
  const auto service_symbol =
      service.empty() ? std::optional<uint32_t>(SymbolTable::kEmptySymbol)
                      : symbols_.Find(service);
  if (!service_symbol) {
    // No series can carry a name the symbol table never saw. Answering
    // without a cache entry keeps lookups of arbitrary names (e.g. /run on
    // an unknown service) from growing the cache.
    return {};
  }
  std::lock_guard<std::mutex> cache_lock(list_cache_mutex_);
  const uint64_t current = generation();
  const auto [it, inserted] = list_cache_.try_emplace(service);
  ListCacheEntry& cached = it->second;
  if (!inserted && cached.generation == current) {
    scan_counters_.list_cache_hits->Increment();
    return cached.ids;
  }
  scan_counters_.list_cache_misses->Increment();
  cached.ids.clear();
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [id, unused] : shard.series) {
      if (service.empty() || id.service == *service_symbol) {
        cached.ids.push_back(Resolve(id));
      }
    }
  }
  // Deterministic canonical order for reproducible pipeline runs;
  // MetricId's field-wise operator< avoids ToString() allocations.
  std::sort(cached.ids.begin(), cached.ids.end());
  cached.generation = current;
  return cached.ids;
}

std::vector<MetricId> TimeSeriesDatabase::ListMetricsOfKind(const std::string& service,
                                                            MetricKind kind) const {
  std::vector<MetricId> ids;
  for (MetricId& id : ListMetrics(service)) {
    if (id.kind == kind) {
      ids.push_back(std::move(id));
    }
  }
  return ids;
}

size_t TimeSeriesDatabase::metric_count() const {
  size_t count = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    count += shard.series.size();
  }
  return count;
}

size_t TimeSeriesDatabase::total_points() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [unused, entry] : shard.series) {
      total += entry.data.size();
    }
  }
  return total;
}

TimeSeriesDatabase::MemoryStats TimeSeriesDatabase::memory_stats() const {
  MemoryStats stats;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [unused, entry] : shard.series) {
      stats.raw_points += entry.data.tail().size();
      stats.sealed_points += entry.data.sealed_points();
      stats.resident_sealed_bytes += entry.data.sealed_bytes();
    }
  }
  return stats;
}

void TimeSeriesDatabase::SealBefore(TimePoint boundary) {
  if (DurableActive()) {
    // New symbols must reach disk before chunk/WAL records referencing them.
    CommitSymbols();
  }
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    bool changed = false;
    for (auto& [unused, entry] : shard.series) {
      const size_t sealed_before = entry.data.sealed_points();
      entry.data.SealBefore(boundary);
      if (entry.data.sealed_points() != sealed_before) {
        changed = true;
      }
    }
    if (changed) {
      shard.generation.fetch_add(1, std::memory_order_relaxed);
    }
    // Re-checked per shard: a failure below degrades the tier mid-loop, and
    // the remaining shards must still get their in-memory seal (above) while
    // skipping all durable work.
    if (!DurableActive() || shard.wal == nullptr) {
      continue;
    }
    // Persist every chunk holding points the store has not seen (new chunks,
    // chunks grown by this seal, chunks trimmed by retention) — one batch of
    // appends, one fsync per shard.
    for (auto& [id, entry] : shard.series) {
      for (size_t i = 0; i < entry.data.chunk_count() && DurableActive(); ++i) {
        if (!entry.data.ChunkNeedsPersist(i)) {
          continue;
        }
        const CompressedTimeSeries& data = entry.data.ChunkData(i);
        const TieredSeries::ChunkInfo info = entry.data.GetChunkInfo(i);
        if (!HandleDurableError(shard.chunk_store->Append(
                id, data.bytes(), data.bit_count(), info.count, info.first,
                info.last))) {
          break;  // Not appended — leave the chunk marked non-durable.
        }
        entry.data.MarkChunkDurable(i);
      }
    }
    if (!DurableActive() ||
        !HandleDurableError(shard.chunk_store->Sync())) {
      // No checkpoint for this shard: the WAL keeps its committed appends, so
      // nothing already durable is discarded on the failure path.
      continue;
    }
    // Checkpoint: the sealed history is now in the chunk file, so the WAL
    // shrinks to {latest retention cutoff, seal boundary, tail snapshots} —
    // recovery cost is bounded by the working set, not the ingest history.
    // Uncommitted appends still in the buffer are subsumed by the chunk
    // records just synced plus the tail snapshots below; left in place they
    // would lead the checkpoint frame and, replaying as newer points, make
    // recovery reject the snapshots behind them.
    shard.wal->DiscardPending();
    if (have_drop_cutoff_) {
      shard.wal->BufferDropBefore(last_drop_cutoff_);
    }
    shard.wal->BufferSealBoundary(boundary);
    for (auto& [id, entry] : shard.series) {
      const TimeSeries& tail = entry.data.tail();
      if (!tail.empty()) {
        shard.wal->BufferPoints(id, tail.timestamps(), tail.values());
      }
    }
    HandleDurableError(shard.wal->Rewrite());
  }
  if (options_.durable.enabled()) {
    last_seal_boundary_ = std::max(last_seal_boundary_, boundary);
  }
  PublishDurableTotals(/*memory=*/true);
}

void TimeSeriesDatabase::Expire(TimePoint cutoff) {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (auto it = shard.series.begin(); it != shard.series.end();) {
      it->second.data.DropBefore(cutoff);
      if (it->second.data.empty()) {
        it = shard.series.erase(it);
      } else {
        ++it;
      }
    }
    shard.generation.fetch_add(1, std::memory_order_relaxed);
    if (DurableActive() && shard.wal != nullptr) {
      // Force-commit the cutoff (after any buffered appends): recovery must
      // never resurrect dropped points from stale checkpoint snapshots or
      // chunk records still in the chunk file.
      shard.wal->BufferDropBefore(cutoff);
      CommitSymbols();
      HandleDurableError(shard.wal->Commit());
    }
  }
  if (options_.durable.enabled()) {
    // Tracked even when degraded: the next successful checkpoint (if the
    // tier recovers in a future process) and SealBefore's snapshot both
    // consult the in-memory cutoff.
    last_drop_cutoff_ = std::max(last_drop_cutoff_, cutoff);
    have_drop_cutoff_ = true;
  }
  PublishDurableTotals(/*memory=*/true);
}

uint64_t TimeSeriesDatabase::generation() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.generation.load(std::memory_order_relaxed);
  }
  return total;
}

TimeSeriesDatabase::DurableStats TimeSeriesDatabase::durable_stats() const {
  DurableStats stats;
  stats.enabled = options_.durable.enabled();
  if (!stats.enabled) {
    return stats;
  }
  const DurableCounters& c = durable_counters_;
  stats.io_errors = c.io_errors->value();
  stats.degraded = durable_degraded_.load(std::memory_order_relaxed);
  // Null checks: a degraded open may have left later shards (or even the
  // symbols log) unopened.
  if (symbols_log_) {
    std::lock_guard<std::mutex> lock(symbols_log_mutex_);
    const WriteAheadLog::Stats& log = symbols_log_->stats();
    stats.group_commits += log.group_commits;
    stats.log_bytes += log.file_bytes;
    stats.log_bytes_written += log.bytes_written;
  }
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.wal != nullptr) {
      const WriteAheadLog::Stats& log = shard.wal->stats();
      stats.group_commits += log.group_commits;
      stats.checkpoint_rewrites += log.rewrites;
      stats.log_bytes += log.file_bytes;
      stats.log_bytes_written += log.bytes_written;
    }
    if (shard.chunk_store != nullptr) {
      const ChunkStore::Stats& chunks = shard.chunk_store->stats();
      stats.chunk_file_bytes += chunks.file_bytes;
      stats.chunks_persisted += chunks.appends;
    }
  }
  stats.recoveries = c.recoveries->value();
  stats.recovered_points = c.recovered_points->value();
  stats.recovered_chunks = recovered_chunks_;
  stats.recovered_truncated_bytes = recovered_truncated_bytes_;
  // Write-phase fields; reading them from the stats (read) phase is safe
  // because no writer is concurrent by the phase discipline.
  stats.last_seal_boundary = last_seal_boundary_;
  stats.last_drop_cutoff = last_drop_cutoff_;
  return stats;
}

}  // namespace fbdetect
