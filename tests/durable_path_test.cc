// End-to-end acceptance tests for the durable storage tier (DESIGN.md §15):
// the group-commit WAL and the chunk store must truncate torn tails at frame
// granularity, a clean close + reopen must be lossless, chunks restored from
// the chunk file must serve scans, retention and later seals like the
// in-memory oracle, a corrupt restored chunk must read as kDataLoss,
// detection output must be byte-identical with the tier off and on at
// scan_threads 1/2/8, a SIGKILL'd writer must recover to a state whose
// detection output matches an uninterrupted run, and the database's own
// tsdb.durable.* / tsdb.memory.* instruments must track the tier.
#include <gtest/gtest.h>

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <iterator>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/common/sim_time.h"
#include "src/core/pipeline.h"
#include "src/fleet/fleet.h"
#include "src/fleet/service.h"
#include "src/observe/telemetry.h"
#include "src/observe/telemetry_export.h"
#include "src/report/report.h"
#include "src/tsdb/chunk_store.h"
#include "src/tsdb/crc32c.h"
#include "src/tsdb/database.h"
#include "src/tsdb/durable_io.h"
#include "src/tsdb/metric_id.h"
#include "src/tsdb/wal.h"
#include "tests/batch_writes.h"

namespace fbdetect {
namespace {

// ---------------------------------------------------------------------------
// Filesystem helpers.
// ---------------------------------------------------------------------------

std::string MakeTempDir(const char* tag) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "/tmp/fbd_durable_%s_XXXXXX", tag);
  const char* dir = mkdtemp(buf);
  EXPECT_NE(dir, nullptr);
  return dir == nullptr ? std::string() : std::string(dir);
}

void RemoveTree(const std::string& dir) {
  if (dir.empty()) {
    return;
  }
  if (DIR* d = opendir(dir.c_str())) {
    while (const dirent* entry = readdir(d)) {
      const std::string name = entry->d_name;
      if (name != "." && name != "..") {
        (void)unlink((dir + "/" + name).c_str());
      }
    }
    closedir(d);
  }
  (void)rmdir(dir.c_str());
}

// RAII cleanup so failures don't leak /tmp directories.
struct ScopedDir {
  std::string path;
  explicit ScopedDir(const char* tag) : path(MakeTempDir(tag)) {}
  ~ScopedDir() { RemoveTree(path); }
};

off_t FileSize(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? st.st_size : -1;
}

void AppendGarbage(const std::string& path, size_t bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  ASSERT_GE(fd, 0);
  const std::vector<uint8_t> junk(bytes, 0xAB);
  ASSERT_EQ(::write(fd, junk.data(), junk.size()), static_cast<ssize_t>(bytes));
  ::close(fd);
}

void FlipByteAt(const std::string& path, off_t offset) {
  const int fd = ::open(path.c_str(), O_RDWR);
  ASSERT_GE(fd, 0);
  uint8_t b = 0;
  ASSERT_EQ(::pread(fd, &b, 1, offset), 1);
  b ^= 0xFF;
  ASSERT_EQ(::pwrite(fd, &b, 1, offset), 1);
  ::close(fd);
}

void TruncateBy(const std::string& path, off_t bytes) {
  const off_t size = FileSize(path);
  ASSERT_GE(size, bytes);
  ASSERT_EQ(::truncate(path.c_str(), size - bytes), 0);
}

uint64_t CounterValue(const TelemetryRegistry& registry, const std::string& name) {
  for (const CounterSnapshot& counter : registry.SnapshotCounters()) {
    if (counter.name == name) {
      return counter.value;
    }
  }
  ADD_FAILURE() << "counter not registered: " << name;
  return 0;
}

// ---------------------------------------------------------------------------
// WAL: group commits replay in order; torn tails truncate at frame
// granularity; Rewrite replaces history with the checkpoint.
// ---------------------------------------------------------------------------

struct ReplayedState {
  std::vector<std::string> events;  // Order-sensitive record trace.
  size_t points = 0;

  WriteAheadLog::ReplayHandler Handler() {
    WriteAheadLog::ReplayHandler handler;
    handler.points = [this](const InternedMetricId& id,
                            std::span<const TimePoint> timestamps,
                            std::span<const double> values) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "points(%u,%u) n=%zu t0=%lld v0=%g", id.service,
                    id.entity, timestamps.size(),
                    static_cast<long long>(timestamps.empty() ? -1 : timestamps[0]),
                    values.empty() ? 0.0 : values[0]);
      events.push_back(buf);
      points += timestamps.size();
    };
    handler.drop_before = [this](TimePoint cutoff) {
      events.push_back("drop " + std::to_string(cutoff));
    };
    handler.seal_boundary = [this](TimePoint boundary) {
      events.push_back("seal " + std::to_string(boundary));
    };
    return handler;
  }
};

constexpr InternedMetricId kIdA{1, MetricKind::kGcpu, 2, 0};
constexpr InternedMetricId kIdB{1, MetricKind::kLatency, 3, 0};

TEST(WalGroupCommitTest, ReplayDeliversCommittedRecordsInOrder) {
  const ScopedDir dir("wal");
  const std::string path = dir.path + "/wal.0";
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path, {}, /*fsync=*/false).ok());
    const TimePoint t1[] = {10, 20};
    const double v1[] = {1.5, 2.5};
    wal.BufferPoints(kIdA, t1, v1);
    wal.BufferDropBefore(5);
    wal.BufferSealBoundary(7);
    ASSERT_TRUE(wal.Commit().ok());  // Frame 1: three records, one write().
    const TimePoint t2[] = {30};
    const double v2[] = {-4.0};
    wal.BufferPoints(kIdB, t2, v2);
    ASSERT_TRUE(wal.Commit().ok());  // Frame 2.
    EXPECT_EQ(wal.stats().group_commits, 2u);
    EXPECT_EQ(wal.pending_bytes(), 0u);
  }
  ReplayedState replayed;
  WriteAheadLog reopened;
  ASSERT_TRUE(reopened.Open(path, replayed.Handler(), false).ok());
  const std::vector<std::string> expected = {
      "points(1,2) n=2 t0=10 v0=1.5",
      "drop 5",
      "seal 7",
      "points(1,3) n=1 t0=30 v0=-4",
  };
  EXPECT_EQ(replayed.events, expected);
  EXPECT_EQ(replayed.points, 3u);
  EXPECT_EQ(reopened.stats().replayed_points, 3u);
  EXPECT_EQ(reopened.stats().truncated_bytes, 0u);
}

TEST(WalGroupCommitTest, TornTailIsTruncatedAtFrameGranularity) {
  const ScopedDir dir("waltorn");
  const std::string path = dir.path + "/wal.0";
  off_t frame1_end = 0;
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path, {}, false).ok());
    const TimePoint t1[] = {10, 20};
    const double v1[] = {1.0, 2.0};
    wal.BufferPoints(kIdA, t1, v1);
    ASSERT_TRUE(wal.Commit().ok());
    frame1_end = FileSize(path);
    const TimePoint t2[] = {30, 40};
    const double v2[] = {3.0, 4.0};
    wal.BufferPoints(kIdA, t2, v2);
    ASSERT_TRUE(wal.Commit().ok());
  }
  const off_t full = FileSize(path);

  // Garbage after the last frame (a torn header): dropped, frames intact.
  AppendGarbage(path, 7);
  {
    ReplayedState replayed;
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path, replayed.Handler(), false).ok());
    EXPECT_EQ(replayed.points, 4u);
    EXPECT_EQ(wal.stats().truncated_bytes, 7u);
    EXPECT_EQ(FileSize(path), full);  // Truncated back to the clean prefix.

    // The truncated log accepts new commits on the clean prefix.
    const TimePoint t3[] = {50};
    const double v3[] = {5.0};
    wal.BufferPoints(kIdB, t3, v3);
    ASSERT_TRUE(wal.Commit().ok());
  }
  {
    ReplayedState replayed;
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path, replayed.Handler(), false).ok());
    EXPECT_EQ(replayed.points, 5u);
  }

  // A flipped byte inside the second frame's payload fails its CRC: recovery
  // keeps frame 1 (and everything before the corruption boundary) only.
  FlipByteAt(path, frame1_end + 13);
  {
    ReplayedState replayed;
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path, replayed.Handler(), false).ok());
    EXPECT_EQ(replayed.points, 2u);
    EXPECT_GT(wal.stats().truncated_bytes, 0u);
    EXPECT_EQ(FileSize(path), frame1_end);
  }
}

TEST(WalGroupCommitTest, RewriteReplacesHistoryWithCheckpoint) {
  const ScopedDir dir("walrw");
  const std::string path = dir.path + "/wal.0";
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path, {}, false).ok());
    for (int i = 0; i < 10; ++i) {
      const TimePoint t[] = {TimePoint{10 * (i + 1)}};
      const double v[] = {static_cast<double>(i)};
      wal.BufferPoints(kIdA, t, v);
      ASSERT_TRUE(wal.Commit().ok());
    }
    const off_t before = FileSize(path);
    wal.BufferDropBefore(40);
    wal.BufferSealBoundary(90);
    const TimePoint tail[] = {90, 100};
    const double tail_v[] = {8.0, 9.0};
    wal.BufferPoints(kIdA, tail, tail_v);
    ASSERT_TRUE(wal.Rewrite().ok());
    EXPECT_EQ(wal.stats().rewrites, 1u);
    EXPECT_LT(FileSize(path), before);
  }
  ReplayedState replayed;
  WriteAheadLog wal;
  ASSERT_TRUE(wal.Open(path, replayed.Handler(), false).ok());
  const std::vector<std::string> expected = {
      "drop 40",
      "seal 90",
      "points(1,2) n=2 t0=90 v0=8",
  };
  EXPECT_EQ(replayed.events, expected);
}

// ---------------------------------------------------------------------------
// ChunkStore: append/sync/reopen round trip and torn-tail truncation.
// ---------------------------------------------------------------------------

std::vector<uint8_t> TestPayload(size_t n, uint8_t salt) {
  std::vector<uint8_t> payload(n);
  for (size_t i = 0; i < n; ++i) {
    payload[i] = static_cast<uint8_t>(i * 3 + salt);
  }
  return payload;
}

// A restored chunk record with its payload copied out of the callback, whose
// span is valid only during the call.
struct RestoredRecord {
  ChunkStore::RestoredChunk chunk;  // `chunk.payload` is cleared.
  std::vector<uint8_t> payload;
};

// Opens `store` on `path` and returns the records it restores, in file order.
std::vector<RestoredRecord> OpenAndRestore(ChunkStore& store, const std::string& path) {
  std::vector<RestoredRecord> records;
  const Status opened = store.Open(
      path,
      [&](const ChunkStore::RestoredChunk& c) {
        RestoredRecord record{c, std::vector<uint8_t>(c.payload.begin(), c.payload.end())};
        record.chunk.payload = {};
        records.push_back(std::move(record));
      },
      /*fsync=*/false);
  EXPECT_TRUE(opened.ok()) << opened.message();
  return records;
}

TEST(ChunkStoreTest, AppendSyncReopenRestoresRecordsAndPayloads) {
  const ScopedDir dir("chunks");
  const std::string path = dir.path + "/chunks.0";
  const std::vector<uint8_t> p1 = TestPayload(100, 1);
  const std::vector<uint8_t> p2 = TestPayload(333, 2);
  {
    ChunkStore store;
    ASSERT_TRUE(store.Open(path, nullptr, /*fsync=*/false).ok());
    ASSERT_TRUE(store.Append(kIdA, p1, /*bit_count=*/800, /*count=*/17,
                             /*first=*/100, /*last=*/200)
                    .ok());
    ASSERT_TRUE(store.Append(kIdB, p2, 2661, 40, 210, 400).ok());
    ASSERT_TRUE(store.Sync().ok());
    EXPECT_EQ(store.stats().appends, 2u);
  }
  ChunkStore reopened;
  const std::vector<RestoredRecord> restored = OpenAndRestore(reopened, path);
  ASSERT_EQ(restored.size(), 2u);
  EXPECT_EQ(restored[0].chunk.id, kIdA);
  EXPECT_EQ(restored[0].payload, p1);
  EXPECT_EQ(restored[0].chunk.bit_count, 800u);
  EXPECT_EQ(restored[0].chunk.count, 17u);
  EXPECT_EQ(restored[0].chunk.first, 100);
  EXPECT_EQ(restored[0].chunk.last, 200);
  EXPECT_EQ(restored[1].chunk.id, kIdB);
  EXPECT_EQ(restored[1].payload, p2);
  EXPECT_EQ(restored[1].chunk.bit_count, 2661u);
  EXPECT_EQ(reopened.stats().restored_chunks, 2u);
}

TEST(ChunkStoreTest, TornTailDropsOnlyTheLastRecord) {
  const ScopedDir dir("chunktorn");
  const std::string path = dir.path + "/chunks.0";
  const std::vector<uint8_t> payload = TestPayload(64, 5);
  {
    ChunkStore store;
    ASSERT_TRUE(store.Open(path, nullptr, false).ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(store.Append(kIdA, payload, 512, 8, 100 * i, 100 * i + 90).ok());
    }
    ASSERT_TRUE(store.Sync().ok());
  }
  TruncateBy(path, 10);  // Tear the third record.
  {
    ChunkStore store;
    size_t restored = 0;
    ASSERT_TRUE(store.Open(path, [&](const ChunkStore::RestoredChunk&) { ++restored; }, false)
                    .ok());
    EXPECT_EQ(restored, 2u);
    EXPECT_GT(store.stats().truncated_bytes, 0u);

    // The truncated store accepts appends on the clean prefix.
    ASSERT_TRUE(store.Append(kIdB, payload, 512, 8, 300, 390).ok());
    ASSERT_TRUE(store.Sync().ok());
  }
  ChunkStore store;
  size_t restored = 0;
  ASSERT_TRUE(store.Open(path, [&](const ChunkStore::RestoredChunk&) { ++restored; }, false)
                  .ok());
  EXPECT_EQ(restored, 3u);
  EXPECT_EQ(store.stats().truncated_bytes, 0u);
}

// ---------------------------------------------------------------------------
// CRC32C: every compiled entry returns the table loop's value, which files
// already on disk were framed with.
// ---------------------------------------------------------------------------

// The entries this CPU runs, with a note for each it lacks.
std::vector<const crc32c_internal::Entry*> RunnableCrcEntries() {
  std::vector<const crc32c_internal::Entry*> entries;
  for (const crc32c_internal::Entry& entry : crc32c_internal::CompiledEntries()) {
    if (entry.cpu_runs()) {
      entries.push_back(&entry);
    } else {
      std::printf("note: this CPU lacks the %s entry's ISA; it is not checked\n", entry.name);
    }
  }
  return entries;
}

TEST(Crc32cTest, EveryEntryMatchesKnownAnswers) {
  // RFC 3720 §B.4 and the customary "123456789" check value.
  std::vector<uint8_t> ascending(32);
  std::vector<uint8_t> descending(32);
  for (uint8_t i = 0; i < 32; ++i) {
    ascending[i] = i;
    descending[i] = static_cast<uint8_t>(31 - i);
  }
  const std::string check = "123456789";
  const std::vector<std::pair<std::vector<uint8_t>, uint32_t>> cases = {
      {std::vector<uint8_t>(32, 0x00), 0x8A9136AAu},
      {std::vector<uint8_t>(32, 0xFF), 0x62A8AB43u},
      {ascending, 0x46DD794Eu},
      {descending, 0x113FDB5Cu},
      {std::vector<uint8_t>(check.begin(), check.end()), 0xE3069283u},
  };
  for (const crc32c_internal::Entry* entry : RunnableCrcEntries()) {
    for (size_t c = 0; c < cases.size(); ++c) {
      const std::vector<uint8_t>& bytes = cases[c].first;
      EXPECT_EQ(entry->crc(bytes.data(), bytes.size(), 0), cases[c].second)
          << entry->name << " entry, case " << c;
    }
  }
  EXPECT_EQ(Crc32c(reinterpret_cast<const uint8_t*>(check.data()), check.size()),
            0xE3069283u);
}

TEST(Crc32cTest, EveryEntryMatchesTheTableLoop) {
  const crc32c_internal::Entry& table = crc32c_internal::CompiledEntries()[0];
  Rng rng(47);
  std::vector<uint8_t> buffer(1024 + 8);
  for (uint8_t& byte : buffer) {
    byte = static_cast<uint8_t>(rng.NextUint64(256));
  }
  for (const crc32c_internal::Entry* entry : RunnableCrcEntries()) {
    for (size_t offset = 0; offset < 8; ++offset) {
      for (size_t size = 0; size <= 1024; ++size) {
        const auto seed = static_cast<uint32_t>(rng.NextUint64());
        const uint8_t* data = buffer.data() + offset;
        ASSERT_EQ(entry->crc(data, size, seed), table.crc(data, size, seed))
            << entry->name << " entry: offset " << offset << " size " << size;
      }
    }
  }
}

TEST(Crc32cTest, ChainedCallsComposeTheConcatenation) {
  Rng rng(53);
  std::vector<uint8_t> joined(600);
  for (uint8_t& byte : joined) {
    byte = static_cast<uint8_t>(rng.NextUint64(256));
  }
  for (size_t split = 0; split <= joined.size(); split += 7) {
    const uint32_t head = Crc32c(joined.data(), split);
    EXPECT_EQ(Crc32c(joined.data() + split, joined.size() - split, head),
              Crc32c(joined.data(), joined.size()))
        << "split " << split;
  }
}

// ---------------------------------------------------------------------------
// Database round trip: seal, expire, clean close, reopen — lossless, and
// convergent under repeated reopens.
// ---------------------------------------------------------------------------

TsdbOptions DurableDbOptions(const std::string& dir) {
  TsdbOptions options;
  options.shard_count = 4;
  options.seal_chunk_points = 64;
  options.durable.directory = dir;
  options.durable.fsync = false;  // Logical recovery only; no power-loss claim.
  return options;
}

std::vector<MetricId> RoundTripIds() {
  return {MetricId{"svc", MetricKind::kGcpu, "a", ""},
          MetricId{"svc", MetricKind::kGcpu, "b", "note"},
          MetricId{"svc2", MetricKind::kLatency, "x", ""}};
}

// Commits minutes [begin, end) of every round-trip series in one batch.
void CommitRoundTripMinutes(TimeSeriesDatabase& db, int begin, int end) {
  const std::vector<MetricId> ids = RoundTripIds();
  WriteBatch batch(&db);
  for (int i = begin; i < end; ++i) {
    for (size_t s = 0; s < ids.size(); ++s) {
      batch.Add(db.Intern(ids[s]), 60 * i,
                static_cast<double>(i) + 0.25 * static_cast<double>(s));
    }
  }
  batch.Commit();
}

void RoundTripWorkload(TimeSeriesDatabase& db) {
  CommitRoundTripMinutes(db, 0, 200);
  db.SealBefore(60 * 150);
  CommitRoundTripMinutes(db, 200, 250);
  db.Expire(60 * 30);
}

// One value a minute from minute `begin` to `end` (exclusive).
TimeSeries Minutely(int begin, int end, const std::function<double(int)>& value) {
  TimeSeries series;
  for (int i = begin; i < end; ++i) {
    series.Append(60 * i, value(i));
  }
  return series;
}

void ExpectSameContent(const TimeSeriesDatabase& got, const TimeSeriesDatabase& want) {
  ASSERT_EQ(got.ListMetrics(), want.ListMetrics());
  for (const MetricId& id : want.ListMetrics()) {
    const std::optional<TimeSeries> g = got.Find(id);
    const std::optional<TimeSeries> w = want.Find(id);
    ASSERT_TRUE(g.has_value()) << id.ToString();
    ASSERT_TRUE(w.has_value()) << id.ToString();
    EXPECT_EQ(g->timestamps(), w->timestamps()) << id.ToString();
    EXPECT_EQ(g->values(), w->values()) << id.ToString();
  }
  EXPECT_EQ(got.total_points(), want.total_points());
}

TEST(DurableDbTest, CleanCloseReopenIsLossless) {
  const ScopedDir dir("roundtrip");
  TimeSeriesDatabase ram;  // Oracle: same workload, no durable tier.
  RoundTripWorkload(ram);
  {
    TimeSeriesDatabase db(DurableDbOptions(dir.path));
    EXPECT_FALSE(ram.durable_stats().enabled);
    EXPECT_TRUE(db.durable_stats().enabled);
    EXPECT_EQ(db.durable_stats().recoveries, 0u);  // Fresh directory.
    RoundTripWorkload(db);
    ExpectSameContent(db, ram);
  }  // Destructor = clean close (SyncDurable).
  {
    TimeSeriesDatabase db(DurableDbOptions(dir.path));
    const TimeSeriesDatabase::DurableStats stats = db.durable_stats();
    EXPECT_EQ(stats.recoveries, 1u);
    EXPECT_GT(stats.recovered_points + stats.recovered_chunks, 0u);
    EXPECT_EQ(stats.recovered_truncated_bytes, 0u);
    EXPECT_EQ(stats.last_seal_boundary, 60 * 150);
    EXPECT_EQ(stats.last_drop_cutoff, 60 * 30);
    ExpectSameContent(db, ram);

    // Keep growing after recovery; reopen again — convergent, still lossless.
    const TimeSeries growth =
        Minutely(250, 300, [](int i) { return static_cast<double>(i); });
    CommitSeries(db, RoundTripIds()[0], growth);
    CommitSeries(ram, RoundTripIds()[0], growth);
    db.SealBefore(60 * 280);
    ram.SealBefore(60 * 280);
  }
  TimeSeriesDatabase db(DurableDbOptions(dir.path));
  ExpectSameContent(db, ram);
}

TEST(DurableDbTest, ExpiredPointsDoNotResurrectAcrossReopen) {
  const ScopedDir dir("expire");
  {
    TimeSeriesDatabase db(DurableDbOptions(dir.path));
    CommitSeries(db, MetricId{"svc", MetricKind::kGcpu, "a", ""},
                 Minutely(0, 200, [](int i) { return static_cast<double>(i); }));
    db.SealBefore(60 * 150);  // Chunks now hold points the cutoff will drop.
    db.Expire(60 * 180);
  }
  TimeSeriesDatabase db(DurableDbOptions(dir.path));
  const std::optional<TimeSeries> series =
      db.Find(MetricId{"svc", MetricKind::kGcpu, "a", ""});
  ASSERT_TRUE(series.has_value());
  // The chunk file still contains superseded records for the dropped range;
  // replaying the retention cutoff must keep them dead.
  EXPECT_EQ(series->start_time(), 60 * 180);
  EXPECT_EQ(series->size(), 20u);
}

// ---------------------------------------------------------------------------
// Restored history: after a reopen every sealed chunk comes back from the
// chunk file onto the heap and serves scans, retention and later seals.
// ---------------------------------------------------------------------------

TEST(DurableDbTest, RestoredChunksServeScansRetentionAndNewSeals) {
  const ScopedDir dir("restored");
  // Oracle: same history and chunk size, no durable tier.
  TsdbOptions ram_options = DurableDbOptions(dir.path);
  ram_options.durable = DurableOptions{};
  TimeSeriesDatabase ram(ram_options);
  const MetricId id{"svc", MetricKind::kGcpu, "hot", ""};
  const TimeSeries hot =
      Minutely(0, 3000, [](int i) { return 10.0 + static_cast<double>(i % 29); });
  CommitSeries(ram, id, hot);
  // 2,500 sealed points in chunks of 64: the newest restored chunk holds 4
  // points, so a seal that grew it would have to continue its stream.
  ram.SealBefore(60 * 2500);
  {
    TimeSeriesDatabase db(DurableDbOptions(dir.path));
    CommitSeries(db, id, hot);
    db.SealBefore(60 * 2500);
  }
  {
    TimeSeriesDatabase db(DurableDbOptions(dir.path));
    EXPECT_GT(db.durable_stats().recovered_chunks, 0u);
    const TimeSeriesDatabase::MemoryStats memory = db.memory_stats();
    EXPECT_EQ(memory.sealed_points, 2500u);
    EXPECT_EQ(memory.resident_sealed_bytes, ram.memory_stats().resident_sealed_bytes);

    // A scan from 0 decodes every restored chunk, then the replayed tail.
    TimeSeries scratch;
    TimeSeries ram_scratch;
    Status status;
    Status ram_status;
    const TimeSeries* got = db.SeriesForScan(id, 0, scratch, &status);
    const TimeSeries* want = ram.SeriesForScan(id, 0, ram_scratch, &ram_status);
    ASSERT_NE(got, nullptr) << status.message();
    ASSERT_NE(want, nullptr);
    EXPECT_EQ(got->timestamps(), want->timestamps());
    EXPECT_EQ(got->values(), want->values());
    EXPECT_EQ(db.scan_stats().sealed_decodes, 1u);
    EXPECT_EQ(db.scan_stats().decode_failures, 0u);

    // Retention trims a restored chunk (minutes 960..1023) and re-encodes its
    // suffix; the seal then starts a new chunk behind the restored ones.
    db.Expire(60 * 1000);
    ram.Expire(60 * 1000);
    db.SealBefore(60 * 2800);
    ram.SealBefore(60 * 2800);
    ExpectSameContent(db, ram);
  }
  TimeSeriesDatabase db(DurableDbOptions(dir.path));
  ExpectSameContent(db, ram);
}

// A CRC-valid chunk record whose bit count overstates its payload cannot be
// written by this process, only by a bug or a bad disk. The restore clamps
// the count to the payload, so the chunk reads as truncated: kDataLoss at
// scan time, counted once, instead of an abort at open.
// Writes 200 minutely points of `id` into a durable database, seals 150 of
// them, then supersedes the series' first chunk (minutes 0-63) with a
// CRC-valid record that keeps its bit count but only half its payload.
void WriteOverstatedFirstChunk(const TsdbOptions& options, const MetricId& id) {
  {
    TimeSeriesDatabase db(options);
    CommitSeries(db, id, Minutely(0, 200, [](int i) { return static_cast<double>(i % 7); }));
    db.SealBefore(60 * 150);
  }
  size_t rewritten = 0;
  for (size_t shard = 0; shard < options.shard_count; ++shard) {
    ChunkStore store;
    const std::vector<RestoredRecord> records =
        OpenAndRestore(store, options.durable.directory + "/chunks." + std::to_string(shard));
    if (records.empty()) {
      continue;
    }
    const ChunkStore::RestoredChunk& first = records.front().chunk;
    const std::vector<uint8_t>& payload = records.front().payload;
    ASSERT_EQ(first.first, 0);
    const std::vector<uint8_t> half(payload.begin(), payload.begin() + payload.size() / 2);
    ASSERT_GT(first.bit_count, half.size() * 8);
    ASSERT_TRUE(store.Append(first.id, half, first.bit_count, first.count, first.first,
                             first.last)
                    .ok());
    ASSERT_TRUE(store.Sync().ok());
    ++rewritten;
  }
  ASSERT_EQ(rewritten, 1u);
}

TEST(DurableDbTest, OverstatedBitCountReadsAsDataLoss) {
  const ScopedDir dir("overstated");
  const MetricId id{"svc", MetricKind::kGcpu, "a", ""};
  const TsdbOptions options = DurableDbOptions(dir.path);
  WriteOverstatedFirstChunk(options, id);

  TimeSeriesDatabase db(options);
  TimeSeries scratch;
  Status status;
  EXPECT_EQ(db.SeriesForScan(id, 0, scratch, &status), nullptr);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(db.scan_stats().decode_failures, 1u);
  EXPECT_EQ(CounterValue(db.telemetry(), "tsdb.scan.decode_failures"), 1u);
  // The intact chunks and the tail still serve a scan that starts after the
  // corrupt one.
  const TimeSeries* tail = db.SeriesForScan(id, 60 * 64, scratch, &status);
  ASSERT_NE(tail, nullptr) << status.message();
  EXPECT_EQ(tail->start_time(), 60 * 64);
  EXPECT_EQ(db.scan_stats().decode_failures, 1u);
}

// Retention whose cutoff falls inside a chunk that does not decode leaves
// that chunk whole, both in Expire and when a reopen replays the cutoff from
// the log: the chunk's range still reads as kDataLoss and the chunks and
// tail after it still serve scans.
TEST(DurableDbTest, RetentionInsideAnUndecodableChunkLeavesItWhole) {
  const ScopedDir dir("overstated_retention");
  const MetricId id{"svc", MetricKind::kGcpu, "a", ""};
  const TsdbOptions options = DurableDbOptions(dir.path);
  WriteOverstatedFirstChunk(options, id);

  const auto expect_trimmed_history = [&](const TimeSeriesDatabase& db) {
    TimeSeries scratch;
    Status status;
    EXPECT_EQ(db.SeriesForScan(id, 0, scratch, &status), nullptr);
    EXPECT_EQ(status.code(), StatusCode::kDataLoss);
    const TimeSeries* later = db.SeriesForScan(id, 60 * 64, scratch, &status);
    ASSERT_NE(later, nullptr) << status.message();
    EXPECT_EQ(later->start_time(), 60 * 64);
    EXPECT_EQ(later->end_time(), 60 * 199);
    EXPECT_EQ(later->size(), 136u);
  };
  {
    TimeSeriesDatabase db(options);
    db.Expire(60 * 30);
    expect_trimmed_history(db);
  }
  const TimeSeriesDatabase reopened(options);
  expect_trimmed_history(reopened);
}

// ---------------------------------------------------------------------------
// Detection byte-identity: disk tier off and on must produce identical
// reports, funnels, quarantine, and tail_hits at scan_threads 1/2/8.
// ---------------------------------------------------------------------------

constexpr Duration kTick = Minutes(10);
constexpr TimePoint kFirstRun = Hours(30);
constexpr Duration kRunStep = Hours(3);
constexpr TimePoint kDataEnd = Days(2);

ServiceConfig TierServiceConfig() {
  ServiceConfig config;
  config.name = "svc";
  config.num_servers = 20;
  config.call_graph.num_subroutines = 16;
  config.sampling.samples_per_bucket = 500000;
  config.sampling.bucket_width = kTick;
  config.tick = kTick;
  config.num_endpoints = 2;
  config.num_seasonal_subroutines = 0;
  config.seasonal_load_amplitude = 0.0;
  config.emit_process_cpu = false;
  config.seed = 7;
  return config;
}

PipelineOptions DetectOptions(int scan_threads) {
  PipelineOptions options;
  options.detection.threshold = 0.0005;
  options.detection.windows.historical = Days(1);
  options.detection.windows.analysis = Hours(4);
  options.detection.windows.extended = Hours(2);
  options.detection.rerun_interval = kRunStep;
  options.scan_threads = scan_threads;
  return options;
}

std::string DetectableLeaf(const ServiceConfig& config) {
  const ServiceSimulator probe(config);
  const CallGraph& graph = probe.graph();
  const std::vector<double> reach = graph.ReachProbabilities();
  for (size_t i = 0; i < graph.node_count(); ++i) {
    const NodeId id = static_cast<NodeId>(i);
    if (graph.edges(id).empty() && reach[i] >= 0.003 && reach[i] <= 0.2) {
      return graph.node(id).name;
    }
  }
  return graph.node(0).name;
}

std::string Serialize(const std::vector<Regression>& reports) {
  std::string out;
  for (const Regression& report : reports) {
    out += ToJsonLine(report);
    out += '\n';
  }
  return out;
}

std::string RenderPipelineState(Pipeline& pipeline) {
  std::string out = RenderFunnel(pipeline.short_term_funnel(), pipeline.long_term_funnel(),
                                 /*long_term_enabled=*/true);
  out += RenderQuarantine(pipeline.quarantine_report(), /*max_rows=*/0);
  return out;
}

// Ticks `service` over (begin, end] into `db`, committing once
// `flush_points` points are staged and at the end: the ingest loop each of
// FleetSimulator::Run's workers runs for one service.
void TickInto(ServiceSimulator& service, TimeSeriesDatabase& db, TimePoint begin,
              TimePoint end, size_t flush_points) {
  const Duration tick = service.config().tick;
  WriteBatch batch(&db);
  for (TimePoint t = begin + tick; t <= end; t += tick) {
    service.Tick(t, batch);
    if (batch.point_count() >= flush_points) {
      batch.Commit();
    }
  }
  batch.Commit();
}

struct TierRun {
  std::string rendered;
  uint64_t tail_hits = 0;
};

// Interleaved ingest / seal / detect over one deterministic fleet. The seal
// boundary trails as_of by 12h, inside the historical window, so every run
// reads both the raw tail and sealed chunks.
TierRun RunTierScenario(const TsdbOptions& tsdb, int scan_threads) {
  const ServiceConfig config = TierServiceConfig();
  ServiceSimulator service(config);
  InjectedEvent event;
  event.kind = EventKind::kStepRegression;
  event.service = config.name;
  event.subroutine = DetectableLeaf(config);
  event.start = Hours(36);
  event.magnitude = 0.5;
  service.ScheduleEvent(event);

  TimeSeriesDatabase db(tsdb);
  Pipeline pipeline(&db, nullptr, nullptr, DetectOptions(scan_threads));
  TierRun result;
  TimePoint ingested = -kTick;
  for (TimePoint as_of = kFirstRun; as_of <= kDataEnd; as_of += kRunStep) {
    TickInto(service, db, ingested, as_of, /*flush_points=*/1024);
    ingested = as_of;
    db.SealBefore(as_of - Hours(12));
    result.rendered += Serialize(pipeline.RunAt(config.name, as_of));
  }
  result.rendered += RenderPipelineState(pipeline);
  result.tail_hits = db.scan_stats().tail_hits;
  return result;
}

TEST(DurableDetectionTest, OutputByteIdenticalAcrossTiersAndThreads) {
  std::vector<TierRun> ram_runs;
  for (const int threads : {1, 2, 8}) {
    const ScopedDir durable_dir("tier_on");

    const TierRun ram = RunTierScenario(TsdbOptions{}, threads);
    TsdbOptions durable;
    durable.durable.directory = durable_dir.path;
    durable.durable.fsync = false;
    const TierRun on = RunTierScenario(durable, threads);

    EXPECT_EQ(on.rendered, ram.rendered) << "scan_threads=" << threads;
    // The zero-copy tail fast path is untouched by the tier: same boundaries,
    // same tail hits.
    EXPECT_EQ(on.tail_hits, ram.tail_hits) << "scan_threads=" << threads;
    ram_runs.push_back(ram);
  }
  EXPECT_EQ(ram_runs[1].rendered, ram_runs[0].rendered);
  EXPECT_EQ(ram_runs[2].rendered, ram_runs[0].rendered);
}

// ---------------------------------------------------------------------------
// Crash recovery: a writer SIGKILL'd on a deterministic marker schedule, then
// reopened, must converge to detection output byte-identical to a run that
// was never interrupted. FBD_DURABLE_KILL_CYCLES (default 3; the chaos CI job
// uses 20) sets how many kill/reopen cycles precede the final complete pass.
// ---------------------------------------------------------------------------

constexpr long kDoneMarker = 1 << 20;

int CrashKillCycles() {
  const char* env = std::getenv("FBD_DURABLE_KILL_CYCLES");
  const int cycles = env != nullptr ? std::atoi(env) : 3;
  return std::max(1, cycles);
}

int CrashSegments() { return std::max(6, CrashKillCycles() + 4); }
Duration CrashSegment() { return Hours(6); }
TimePoint CrashEnd() { return CrashSegments() * CrashSegment(); }

long ReadMarker(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return -1;
  }
  long value = -1;
  if (std::fscanf(f, "%ld", &value) != 1) {
    value = -1;
  }
  std::fclose(f);
  return value;
}

void WriteMarkerAtomic(const std::string& path, long value) {
  const std::string tmp = path + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) {
    _exit(41);
  }
  std::fprintf(f, "%ld\n", value);
  std::fclose(f);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    _exit(42);
  }
}

std::unique_ptr<FleetSimulator> BuildCrashReferenceFleet() {
  auto fleet = std::make_unique<FleetSimulator>();
  const ServiceConfig config = TierServiceConfig();
  fleet->AddService(config);
  InjectedEvent event;
  event.kind = EventKind::kStepRegression;
  event.service = config.name;
  event.subroutine = DetectableLeaf(config);
  event.start = CrashEnd() - Hours(10);
  event.magnitude = 0.5;
  fleet->InjectEvent(event);
  fleet->Run(-kTick, CrashEnd());
  return fleet;
}

TsdbOptions CrashDbOptions(const std::string& dir) {
  TsdbOptions options;
  options.shard_count = 4;
  options.seal_chunk_points = 64;
  options.durable.directory = dir;
  // Small group threshold: many auto-commits per segment, so a kill lands
  // between (or inside) real commit frames, not only at segment boundaries.
  options.durable.group_commit_bytes = 4096;
  options.durable.fsync = false;  // Kill-safety, not power-safety: the page
                                  // cache survives process death.
  return options;
}

// Compact description of how two strictly-increasing timestamp vectors
// differ, as collapsed runs — readable even for multi-hundred-point series.
std::string DescribeTimestampDiff(const std::vector<TimePoint>& got,
                                  const std::vector<TimePoint>& want) {
  const auto collapse = [](const std::vector<TimePoint>& ts) {
    std::string out;
    size_t i = 0;
    while (i < ts.size()) {
      size_t j = i;
      while (j + 1 < ts.size() && ts[j + 1] == ts[j] + kTick) {
        ++j;
      }
      if (!out.empty()) {
        out += ", ";
      }
      out += std::string("[") + std::to_string(ts[i]) + ".." + std::to_string(ts[j]) + "]x" +
             std::to_string(j - i + 1);
      i = j + 1;
    }
    return out.empty() ? "(none)" : out;
  };
  std::vector<TimePoint> missing;
  std::set_difference(want.begin(), want.end(), got.begin(), got.end(),
                      std::back_inserter(missing));
  std::vector<TimePoint> extra;
  std::set_difference(got.begin(), got.end(), want.begin(), want.end(),
                      std::back_inserter(extra));
  return "missing " + collapse(missing) + "; extra " + collapse(extra);
}

// Raw on-disk story of a durable directory, for diagnosing recovery bugs:
// every chunk record and WAL frame, in file order, with symbol names resolved.
void DumpDurableDir(const std::string& dir, int shard_count) {
  std::vector<std::string> names;  // Dense ids; id 0 is the pre-interned "".
  {
    WriteAheadLog log;
    WriteAheadLog::ReplayHandler handler;
    handler.symbol = [&](std::string_view name) { names.emplace_back(name); };
    (void)log.Open(dir + "/symbols.log", handler, false);
  }
  const auto name_of = [&](uint32_t id) -> std::string {
    if (id == 0) {
      return "";
    }
    return id - 1 < names.size() ? names[id - 1] : "?" + std::to_string(id);
  };
  const auto series_of = [&](const InternedMetricId& id) {
    return name_of(id.service) + "/" + name_of(id.entity);
  };
  for (int i = 0; i < shard_count; ++i) {
    const std::string suffix = std::string(".").append(std::to_string(i));
    std::fprintf(stderr, "== shard %d chunks ==\n", i);
    ChunkStore chunks;
    (void)chunks.Open(
        dir + "/chunks" + suffix,
        [&](const ChunkStore::RestoredChunk& chunk) {
          std::fprintf(stderr, "  chunk %s [%lld..%lld]x%u bytes=%zu\n",
                       series_of(chunk.id).c_str(),
                       static_cast<long long>(chunk.first),
                       static_cast<long long>(chunk.last), chunk.count,
                       chunk.payload.size());
        },
        false);
    std::fprintf(stderr, "== shard %d wal ==\n", i);
    WriteAheadLog wal;
    WriteAheadLog::ReplayHandler handler;
    handler.points = [&](const InternedMetricId& id,
                         std::span<const TimePoint> timestamps,
                         std::span<const double> values) {
      (void)values;
      std::fprintf(stderr, "  pts %s [%lld..%lld]x%zu\n", series_of(id).c_str(),
                   static_cast<long long>(timestamps.front()),
                   static_cast<long long>(timestamps.back()), timestamps.size());
    };
    handler.drop_before = [&](TimePoint cutoff) {
      std::fprintf(stderr, "  drop_before %lld\n", static_cast<long long>(cutoff));
    };
    handler.seal_boundary = [&](TimePoint boundary) {
      std::fprintf(stderr, "  seal_boundary %lld\n",
                   static_cast<long long>(boundary));
    };
    (void)wal.Open(dir + "/wal" + suffix, handler, false);
  }
}

// Re-ingests into `db` whatever suffix of the reference data it is missing,
// segment by segment, sealing and syncing after each. Recovery always yields
// a per-series prefix of the committed appends (whole WAL frames replay in
// append order), so resuming strictly after each series' newest recovered
// point reproduces the uninterrupted database contents exactly — with zero
// duplicate-ingest rejects — no matter where a previous writer was killed.
// `throttle_us` slows ingest (one sleep per series per segment) so a parent
// polling the progress marker can land kills mid-segment, not only at ends.
void IngestSuffixIntoDurable(TimeSeriesDatabase& db, const TimeSeriesDatabase& ref,
                             const std::function<void(int)>& on_segment_durable,
                             unsigned throttle_us = 0) {
  const std::vector<MetricId> ids = ref.ListMetrics();
  std::vector<InternedMetricId> interned;
  std::vector<TimeSeries> sources;
  std::vector<TimePoint> resume(ids.size(), std::numeric_limits<TimePoint>::min());
  TimePoint progress = std::numeric_limits<TimePoint>::max();
  for (size_t i = 0; i < ids.size(); ++i) {
    interned.push_back(db.Intern(ids[i]));
    sources.push_back(*ref.Find(ids[i]));
    const std::optional<TimeSeries> have = db.Find(ids[i]);
    if (have.has_value() && !have->empty()) {
      resume[i] = have->end_time();
    }
    progress = std::min(progress, resume[i]);
  }
  WriteBatch batch(&db);
  for (int s = 0; s < CrashSegments(); ++s) {
    const TimePoint seg_begin = s * CrashSegment();
    const TimePoint seg_end = (s + 1) * CrashSegment();
    for (size_t i = 0; i < ids.size(); ++i) {
      const TimeSeries* src = &sources[i];
      // Segments are half-open [begin, end), except the last which also takes
      // the final point at exactly CrashEnd().
      const TimePoint hi_time = s + 1 == CrashSegments() ? seg_end + 1 : seg_end;
      const auto [lo, hi] =
          src->SliceIndices(std::max(resume[i] + 1, seg_begin), hi_time);
      for (size_t k = lo; k < hi; ++k) {
        batch.Add(interned[i], src->timestamps()[k], src->values()[k]);
      }
      if (throttle_us != 0) {
        usleep(throttle_us);
      }
    }
    batch.Commit();
    const TimePoint boundary = seg_end - Hours(12);
    if (boundary > 0) {
      db.SealBefore(boundary);
    }
    db.SyncDurable();
    if (seg_end > progress && on_segment_durable) {
      on_segment_durable(s);
    }
  }
}

// Child body; never returns. No gtest in here — a forked child must not run
// test machinery.
[[noreturn]] void RunCrashChild(const std::string& dir, const std::string& marker,
                                const TimeSeriesDatabase& ref) {
  {
    TimeSeriesDatabase db(CrashDbOptions(dir));
    IngestSuffixIntoDurable(
        db, ref, [&marker](int segment) { WriteMarkerAtomic(marker, segment); },
        /*throttle_us=*/1500);
  }  // Clean close before declaring completion.
  WriteMarkerAtomic(marker, kDoneMarker);
  _exit(0);
}

TEST(DurableCrashRecoveryTest, KillAndReopenMatchesUninterruptedRun) {
  const ScopedDir dir("crash");
  const std::string marker = dir.path + "/progress.marker";
  const std::unique_ptr<FleetSimulator> ref = BuildCrashReferenceFleet();
  const int cycles = CrashKillCycles();

  int kills = 0;
  bool done = false;
  while (!done) {
    const long prev = ReadMarker(marker);
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      RunCrashChild(dir.path, marker, ref->db());
    }
    if (kills >= cycles) {
      // Kill budget spent: let this child run to completion.
      int status = 0;
      ASSERT_EQ(waitpid(pid, &status, 0), pid);
      ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
          << "uninterrupted child failed, status=" << status;
      done = ReadMarker(marker) == kDoneMarker;
      ASSERT_TRUE(done);
      break;
    }
    // Wait for the child to commit at least one new segment, then SIGKILL it
    // — the kill races freely into its next ingest, group commit, or seal.
    bool progressed = false;
    for (int poll = 0; poll < 30000 && !progressed && !done; ++poll) {
      const long now = ReadMarker(marker);
      if (now == kDoneMarker) {
        done = true;
        break;
      }
      progressed = now > prev;
      if (!progressed) {
        int status = 0;
        ASSERT_EQ(waitpid(pid, &status, WNOHANG), 0) << "child died unexpectedly";
        usleep(10000);
      }
    }
    if (done) {
      int status = 0;
      ASSERT_EQ(waitpid(pid, &status, 0), pid);
      ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
      break;
    }
    ASSERT_TRUE(progressed) << "child made no durable progress";
    ASSERT_EQ(kill(pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ++kills;
    {
      // Core recovery invariant: whatever the kill point, each recovered
      // series is a strict prefix of the uninterrupted data. The suffix
      // resume in the next child depends on exactly this.
      bool violated = false;
      TimeSeriesDatabase check(CrashDbOptions(dir.path));
      for (const MetricId& id : check.ListMetrics()) {
        const std::optional<TimeSeries> got = check.Find(id);
        const std::optional<TimeSeries> want = ref->db().Find(id);
        ASSERT_TRUE(got.has_value());
        ASSERT_TRUE(want.has_value());
        const bool prefix =
            got->timestamps().size() <= want->timestamps().size() &&
            std::equal(got->timestamps().begin(), got->timestamps().end(),
                       want->timestamps().begin()) &&
            std::equal(got->values().begin(), got->values().end(),
                       want->values().begin());
        EXPECT_TRUE(prefix)
            << "after kill " << kills << ", " << id.ToString()
            << " is not a prefix: "
            << DescribeTimestampDiff(got->timestamps(), want->timestamps());
        violated = violated || !prefix;
      }
      if (violated) {
        DumpDurableDir(dir.path,
                       static_cast<int>(CrashDbOptions(dir.path).shard_count));
        FAIL() << "recovery prefix invariant violated after kill " << kills;
      }
    }
  }
  EXPECT_EQ(kills, cycles) << "data exhausted before the kill schedule; "
                              "raise CrashSegments()";

  // Oracle: the never-interrupted database — same data, same seal schedule.
  for (int s = 0; s < CrashSegments(); ++s) {
    const TimePoint boundary = (s + 1) * CrashSegment() - Hours(12);
    if (boundary > 0) {
      ref->db().SealBefore(boundary);
    }
  }
  {
    // Content identity first: a compact per-series timestamp diff localizes a
    // recovery hole far better than a rendered-report mismatch does.
    TimeSeriesDatabase recovered(CrashDbOptions(dir.path));
    ASSERT_EQ(recovered.ListMetrics(), ref->db().ListMetrics());
    for (const MetricId& id : ref->db().ListMetrics()) {
      const std::optional<TimeSeries> got = recovered.Find(id);
      const std::optional<TimeSeries> want = ref->db().Find(id);
      ASSERT_TRUE(got.has_value());
      ASSERT_TRUE(want.has_value());
      EXPECT_TRUE(got->timestamps() == want->timestamps() &&
                  got->values() == want->values())
          << id.ToString() << ": "
          << DescribeTimestampDiff(got->timestamps(), want->timestamps());
    }
  }

  for (const int threads : {1, 2, 8}) {
    Pipeline oracle(&ref->db(), nullptr, nullptr, DetectOptions(threads));
    std::string oracle_rendered = Serialize(oracle.RunAt("svc", CrashEnd()));
    oracle_rendered += RenderPipelineState(oracle);

    TimeSeriesDatabase recovered(CrashDbOptions(dir.path));
    EXPECT_EQ(recovered.durable_stats().recoveries, 1u);
    EXPECT_GT(recovered.durable_stats().recovered_points +
                  recovered.durable_stats().recovered_chunks,
              0u);
    Pipeline pipeline(&recovered, nullptr, nullptr, DetectOptions(threads));
    std::string rendered = Serialize(pipeline.RunAt("svc", CrashEnd()));
    rendered += RenderPipelineState(pipeline);
    EXPECT_EQ(rendered, oracle_rendered) << "scan_threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Durable-tier telemetry: the database owns its tsdb.* instruments.
// ---------------------------------------------------------------------------

TEST(DurableTelemetryTest, RuntimeExportCarriesDiskTierGauges) {
  const ScopedDir dir("gauges");
  TimeSeriesDatabase db(DurableDbOptions(dir.path));
  ServiceSimulator service(TierServiceConfig());
  TickInto(service, db, -kTick, kFirstRun, FleetIngestOptions{}.flush_points);
  db.SealBefore(Hours(18));

  PipelineOptions options = DetectOptions(/*scan_threads=*/2);
  options.telemetry.enabled = true;
  Pipeline pipeline(&db, nullptr, nullptr, options);
  pipeline.RunAt("svc", kFirstRun);

  const TelemetryRegistries registries = {&db.telemetry(), &pipeline.telemetry()};
  const std::string runtime_json = RenderTelemetryJson(registries, true);
  for (const char* gauge :
       {"tsdb.durable.group_commits", "tsdb.durable.chunk_file_bytes",
        "tsdb.durable.chunks_persisted", "tsdb.durable.recoveries",
        "tsdb.memory.resident_sealed_bytes"}) {
    EXPECT_NE(runtime_json.find(gauge), std::string::npos) << gauge;
  }
  // The deterministic export is unchanged by the tier.
  const std::string deterministic_json = RenderTelemetryJson(registries, false);
  EXPECT_EQ(deterministic_json.find("tsdb.durable."), std::string::npos);
  EXPECT_EQ(deterministic_json.find("tsdb.memory."), std::string::npos);

  // The totals are current as of the last write-phase call; the run only
  // read, so they equal the files' own stats.
  const TimeSeriesDatabase::DurableStats durable = db.durable_stats();
  EXPECT_EQ(CounterValue(db.telemetry(), "tsdb.durable.group_commits"), durable.group_commits);
  EXPECT_EQ(CounterValue(db.telemetry(), "tsdb.durable.chunks_persisted"),
            durable.chunks_persisted);
  EXPECT_EQ(CounterValue(db.telemetry(), "tsdb.memory.resident_sealed_bytes"),
            db.memory_stats().resident_sealed_bytes);

  // A RAM-only database registers no durable instruments at all.
  TimeSeriesDatabase ram;
  CommitPoint(ram, MetricId{"svc", MetricKind::kGcpu, "a", ""}, 0, 1.0);
  Pipeline ram_pipeline(&ram, nullptr, nullptr, options);
  ram_pipeline.RunAt("svc", kFirstRun);
  const std::string ram_json =
      RenderTelemetryJson({&ram.telemetry(), &ram_pipeline.telemetry()}, true);
  EXPECT_EQ(ram_json.find("tsdb.durable."), std::string::npos);
  EXPECT_EQ(ram_json.find("tsdb.memory."), std::string::npos);
}

// ---------------------------------------------------------------------------
// Durable I/O hardening: Rewrite's rename must be made crash-durable by a
// parent-directory fsync, and injected syscall failures must degrade the
// tier to memory-only — never abort, never stop detection.
// ---------------------------------------------------------------------------

struct ScopedIoFailure {
  ~ScopedIoFailure() { durable_io::ClearFailure(); }
};

TEST(WalGroupCommitTest, RewriteFsyncsTheParentDirectory) {
  const ScopedIoFailure guard;
  const ScopedDir dir("walfsync");
  const std::string path = dir.path + "/wal.0";
  WriteAheadLog wal;
  ASSERT_TRUE(wal.Open(path, {}, /*fsync=*/true).ok());
  const TimePoint t[] = {TimePoint{60}};
  const double v[] = {1.0};
  wal.BufferPoints(kIdA, t, v);
  ASSERT_TRUE(wal.Commit().ok());

  durable_io::ClearFailure();  // Reset counters; nothing armed yet.
  wal.BufferDropBefore(30);
  ASSERT_TRUE(wal.Rewrite().ok());
  // Exactly two fsyncs: the rewritten file's frame, then the directory entry
  // — without the latter a crash after the rename can resurrect the old log.
  EXPECT_EQ(durable_io::CallCount(durable_io::Op::kFsync), 2u);
  EXPECT_EQ(durable_io::CallCount(durable_io::Op::kRename), 1u);

  // Regression tripwire: fail the SECOND fsync (the directory one). If the
  // directory fsync were ever dropped, this Rewrite would spuriously
  // succeed.
  durable_io::SetFailure(durable_io::Op::kFsync, 2);
  wal.BufferDropBefore(40);
  EXPECT_FALSE(wal.Rewrite().ok());
  EXPECT_EQ(durable_io::InjectedFailureCount(durable_io::Op::kFsync), 1u);
  durable_io::ClearFailure();

  // The log stays usable after the failed directory fsync (the caller is
  // expected to degrade; the WAL itself tracks the renamed file).
  wal.BufferPoints(kIdA, t, v);
  EXPECT_TRUE(wal.Commit().ok());
}

TEST(DurableDegradationTest, StickyWriteFailureDegradesToMemoryWithoutAbort) {
  const ScopedIoFailure guard;
  const ScopedDir dir("degrade");
  TsdbOptions tsdb;
  tsdb.durable.directory = dir.path;
  tsdb.durable.fsync = false;

  TimeSeriesDatabase db(tsdb);
  const MetricId id{"svc", MetricKind::kLatency, "endpoint", ""};
  // Two days of 10-minute buckets with a 20% step at 36h — detectable even
  // though the durable tier dies partway through the stream.
  int tick = 0;
  for (TimePoint at = kTick; at <= kDataEnd; at += kTick, ++tick) {
    const double base = at < Hours(36) ? 10000.0 : 12000.0;
    CommitPoint(db, id, at, base + static_cast<double>(tick % 7) * 20.0);
    if (at == Hours(20)) {
      // The disk dies mid-stream: every write syscall from here on fails.
      durable_io::SetFailure(durable_io::Op::kWrite, 1, /*sticky=*/true);
      db.SealBefore(Hours(12));  // Forces durable traffic into the failure.
    }
  }
  db.SealBefore(Hours(40));
  db.SyncDurable();  // Best effort against the dead disk; must not abort.

  // The tier degraded instead of aborting, and counted why.
  EXPECT_TRUE(db.durable_degraded());
  EXPECT_GT(db.durable_stats().io_errors, 0u);
  EXPECT_GT(durable_io::InjectedFailureCount(durable_io::Op::kWrite), 0u);

  // Detection still runs over the in-memory data and catches the step.
  PipelineOptions options = DetectOptions(/*scan_threads=*/2);
  options.telemetry.enabled = true;
  Pipeline pipeline(&db, nullptr, nullptr, options);
  const std::vector<Regression> reports = pipeline.RunPeriod("svc", kFirstRun, kDataEnd);
  bool caught = false;
  for (const Regression& report : reports) {
    if (report.metric.kind == MetricKind::kLatency &&
        std::llabs(report.change_time - Hours(36)) <= Hours(2)) {
      caught = true;
    }
  }
  EXPECT_TRUE(caught) << "regression lost to durable degradation:\n"
                      << Serialize(reports);

  // The database's runtime telemetry carries the degradation, so /metrics
  // surfaces it fleet-wide.
  EXPECT_GT(CounterValue(db.telemetry(), "tsdb.durable.io_errors"), 0u);
  EXPECT_EQ(CounterValue(db.telemetry(), "tsdb.durable.degraded"), 1u);
}

}  // namespace
}  // namespace fbdetect
