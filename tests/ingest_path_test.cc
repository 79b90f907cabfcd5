// Tests for the sharded, interned, Gorilla-backed ingestion path: the
// SymbolTable, InternedMetricId round trips, the ListMetrics cache,
// WriteBatch semantics, the TieredSeries seal/read invariants,
// SeriesForScan's zero-copy guarantees, and — the load-bearing properties —
// that ingest thread count and compression tiering do not change database
// content or pipeline output at all.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/random.h"
#include "src/core/pipeline.h"
#include "src/fleet/fleet.h"
#include "src/tsdb/database.h"
#include "src/tsdb/metric_id.h"
#include "src/tsdb/symbol_table.h"
#include "src/tsdb/tiered_series.h"
#include "src/tsdb/timeseries.h"
#include "tests/batch_writes.h"

namespace fbdetect {
namespace {

// ---------------------------------------------------------------------------
// SymbolTable.
// ---------------------------------------------------------------------------

TEST(SymbolTableTest, EmptyStringIsPreInterned) {
  SymbolTable table;
  EXPECT_EQ(table.Intern(""), SymbolTable::kEmptySymbol);
  EXPECT_EQ(table.Name(SymbolTable::kEmptySymbol), "");
  EXPECT_EQ(table.size(), 1u);
}

TEST(SymbolTableTest, InternIsIdempotentAndDense) {
  SymbolTable table;
  const uint32_t a = table.Intern("alpha");
  const uint32_t b = table.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(table.Intern("alpha"), a);
  EXPECT_EQ(table.Intern("beta"), b);
  EXPECT_EQ(table.size(), 3u);  // "", "alpha", "beta".
  EXPECT_EQ(table.Name(a), "alpha");
  EXPECT_EQ(table.Name(b), "beta");
}

TEST(SymbolTableTest, FindNeverCreates) {
  SymbolTable table;
  EXPECT_FALSE(table.Find("ghost").has_value());
  EXPECT_EQ(table.size(), 1u);
  const uint32_t symbol = table.Intern("real");
  ASSERT_TRUE(table.Find("real").has_value());
  EXPECT_EQ(*table.Find("real"), symbol);
}

TEST(SymbolTableTest, NameReferencesStableAcrossGrowth) {
  SymbolTable table;
  const std::string* first = &table.Name(table.Intern("first"));
  for (int i = 0; i < 10000; ++i) {
    table.Intern("filler_" + std::to_string(i));
  }
  EXPECT_EQ(first, &table.Name(1));  // Same object, not just same content.
  EXPECT_EQ(*first, "first");
}

TEST(SymbolTableTest, ConcurrentInternAgreesOnSymbols) {
  SymbolTable table;
  constexpr int kThreads = 8;
  constexpr int kNames = 200;
  std::vector<std::vector<uint32_t>> seen(kThreads, std::vector<uint32_t>(kNames));
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kNames; ++i) {
        seen[static_cast<size_t>(w)][static_cast<size_t>(i)] =
            table.Intern("name_" + std::to_string(i));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int w = 1; w < kThreads; ++w) {
    EXPECT_EQ(seen[static_cast<size_t>(w)], seen[0]);
  }
  EXPECT_EQ(table.size(), static_cast<size_t>(kNames) + 1);
}

// ---------------------------------------------------------------------------
// Interned identity round trips.
// ---------------------------------------------------------------------------

TEST(InternedMetricIdTest, InternResolveRoundTrip) {
  TimeSeriesDatabase db;
  const MetricId id{"ads", MetricKind::kGcpu, "compute_bid", "feature/group1"};
  const InternedMetricId interned = db.Intern(id);
  EXPECT_EQ(db.Resolve(interned), id);

  const MetricId bare{"ads", MetricKind::kCpu, "", ""};
  EXPECT_EQ(db.Resolve(db.Intern(bare)), bare);
  // Empty components map to the pre-interned empty symbol.
  EXPECT_EQ(db.Intern(bare).entity, SymbolTable::kEmptySymbol);
}

TEST(InternedMetricIdTest, DistinguishesAllComponents) {
  TimeSeriesDatabase db;
  const InternedMetricId base = db.Intern({"svc", MetricKind::kGcpu, "sub", "meta"});
  EXPECT_NE(db.Intern({"other", MetricKind::kGcpu, "sub", "meta"}), base);
  EXPECT_NE(db.Intern({"svc", MetricKind::kCpu, "sub", "meta"}), base);
  EXPECT_NE(db.Intern({"svc", MetricKind::kGcpu, "other", "meta"}), base);
  EXPECT_NE(db.Intern({"svc", MetricKind::kGcpu, "sub", "other"}), base);
  EXPECT_EQ(db.Intern({"svc", MetricKind::kGcpu, "sub", "meta"}), base);
}

// ---------------------------------------------------------------------------
// Sharded database: shard count is invisible to readers.
// ---------------------------------------------------------------------------

TEST(ShardedDatabaseTest, ShardCountInvisibleToReaders) {
  TsdbOptions unsharded;
  unsharded.shard_count = 1;
  TsdbOptions sharded;
  sharded.shard_count = 16;
  TimeSeriesDatabase a(unsharded);
  TimeSeriesDatabase b(sharded);
  Rng rng(3);
  for (int s = 0; s < 4; ++s) {
    for (int e = 0; e < 8; ++e) {
      const MetricId id{"svc_" + std::to_string(s), MetricKind::kGcpu,
                        "sub_" + std::to_string(e), ""};
      TimeSeries series;
      for (TimePoint t = 0; t < 50; ++t) {
        series.Append(t * 600 + 600, rng.NextDouble());
      }
      CommitSeries(a, id, series);
      CommitSeries(b, id, series);
    }
  }
  EXPECT_EQ(a.metric_count(), b.metric_count());
  EXPECT_EQ(a.total_points(), b.total_points());
  const std::vector<MetricId> ids_a = a.ListMetrics();
  ASSERT_EQ(ids_a, b.ListMetrics());
  for (const MetricId& id : ids_a) {
    const std::optional<TimeSeries> series_a = a.Find(id);
    const std::optional<TimeSeries> series_b = b.Find(id);
    ASSERT_TRUE(series_a.has_value());
    ASSERT_TRUE(series_b.has_value());
    EXPECT_EQ(series_a->timestamps(), series_b->timestamps());
    EXPECT_EQ(series_a->values(), series_b->values());
  }
  EXPECT_EQ(a.ListMetrics("svc_2"), b.ListMetrics("svc_2"));
  EXPECT_EQ(a.ListMetricsOfKind("svc_2", MetricKind::kGcpu),
            b.ListMetricsOfKind("svc_2", MetricKind::kGcpu));
}

TEST(ShardedDatabaseTest, ListMetricsCacheInvalidatesOnWrite) {
  TimeSeriesDatabase db;
  CommitPoint(db, {"svc", MetricKind::kCpu, "", ""}, 10, 0.5);
  EXPECT_EQ(db.ListMetrics("svc").size(), 1u);
  // Second call hits the cache (no way to observe directly, but it must not
  // serve stale data after a write creates a new metric).
  EXPECT_EQ(db.ListMetrics("svc").size(), 1u);
  CommitPoint(db, {"svc", MetricKind::kThroughput, "", ""}, 10, 1.0);
  EXPECT_EQ(db.ListMetrics("svc").size(), 2u);
  db.Expire(100);  // Drops everything.
  EXPECT_TRUE(db.ListMetrics("svc").empty());
  EXPECT_EQ(db.metric_count(), 0u);
}

// ---------------------------------------------------------------------------
// ListMetrics cache: one sorted list per service, rebuilt whole when the
// database generation moved, observable through scan_stats().
// ---------------------------------------------------------------------------

TEST(TsdbListCacheTest, HitsUntilAWriteThenRebuilds) {
  TimeSeriesDatabase db;
  for (int i = 0; i < 64; ++i) {
    char name[16];
    std::snprintf(name, sizeof(name), "sub%02d", i);
    CommitPoint(db, MetricId{"svc", MetricKind::kGcpu, name, ""}, 0, 1.0);
  }

  // Cold miss: the list is built once.
  const TimeSeriesDatabase::ScanStats cold_before = db.scan_stats();
  const std::vector<MetricId> all = db.ListMetrics("svc");
  EXPECT_EQ(all.size(), 64u);
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
  const TimeSeriesDatabase::ScanStats cold_after = db.scan_stats();
  EXPECT_EQ(cold_after.list_cache_misses, cold_before.list_cache_misses + 1);

  // Hit: no generation moved.
  EXPECT_EQ(db.ListMetrics("svc"), all);
  const TimeSeriesDatabase::ScanStats hit = db.scan_stats();
  EXPECT_EQ(hit.list_cache_hits, cold_after.list_cache_hits + 1);
  EXPECT_EQ(hit.list_cache_misses, cold_after.list_cache_misses);

  // A point on an existing series moves the generation: the next call
  // misses, and the rebuilt listing is unchanged.
  CommitPoint(db, all.front(), 1, 2.0);
  EXPECT_EQ(db.ListMetrics("svc"), all);
  const TimeSeriesDatabase::ScanStats warm = db.scan_stats();
  EXPECT_EQ(warm.list_cache_misses, hit.list_cache_misses + 1);

  // A brand-new series lands at its canonical position.
  const MetricId extra{"svc", MetricKind::kGcpu, "aaa-extra", ""};
  CommitPoint(db, extra, 0, 1.0);
  std::vector<MetricId> expected = all;
  expected.insert(std::upper_bound(expected.begin(), expected.end(), extra), extra);
  EXPECT_EQ(db.ListMetrics("svc"), expected);
  const TimeSeriesDatabase::ScanStats fresh = db.scan_stats();
  EXPECT_EQ(fresh.list_cache_misses, warm.list_cache_misses + 1);
}

TEST(TsdbListCacheTest, UnknownServiceNamesLeaveTheCacheUntouched) {
  TimeSeriesDatabase db;
  CommitPoint(db, MetricId{"svc", MetricKind::kGcpu, "sub00", ""}, 0, 1.0);
  ASSERT_EQ(db.ListMetrics("svc").size(), 1u);

  // Names the symbol table never saw (e.g. /run on an unknown service) get
  // an empty list and no cache entry, so they cannot grow the cache.
  const TimeSeriesDatabase::ScanStats before = db.scan_stats();
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(db.ListMetrics("absent_" + std::to_string(i)).empty());
  }
  const TimeSeriesDatabase::ScanStats after = db.scan_stats();
  EXPECT_EQ(after.list_cache_hits, before.list_cache_hits);
  EXPECT_EQ(after.list_cache_misses, before.list_cache_misses);

  // A known symbol that names no service is cached like any service.
  EXPECT_TRUE(db.ListMetrics("sub00").empty());
  EXPECT_EQ(db.scan_stats().list_cache_misses, after.list_cache_misses + 1);
  EXPECT_TRUE(db.ListMetrics("sub00").empty());
  EXPECT_EQ(db.scan_stats().list_cache_hits, after.list_cache_hits + 1);
}

// ---------------------------------------------------------------------------
// WriteBatch.
// ---------------------------------------------------------------------------

TEST(WriteBatchTest, StagedPointsInvisibleUntilCommit) {
  TimeSeriesDatabase db;
  WriteBatch batch(&db);
  const MetricId id{"svc", MetricKind::kCpu, "", ""};
  const InternedMetricId interned = db.Intern(id);
  batch.Add(interned, 10, 0.5);
  batch.Add(interned, 20, 0.6);
  EXPECT_EQ(batch.point_count(), 2u);
  EXPECT_FALSE(db.Contains(interned));
  EXPECT_EQ(db.total_points(), 0u);
  batch.Commit();
  EXPECT_TRUE(batch.empty());
  EXPECT_TRUE(db.Contains(interned));
  const std::optional<TimeSeries> series = db.Find(id);
  ASSERT_TRUE(series.has_value());
  EXPECT_EQ(series->size(), 2u);
  EXPECT_EQ(series->values()[1], 0.6);
}

TEST(WriteBatchTest, CommitBumpsGeneration) {
  TimeSeriesDatabase db;
  const uint64_t g0 = db.generation();
  WriteBatch batch(&db);
  batch.Add(db.Intern(MetricId{"svc", MetricKind::kCpu, "", ""}), 10, 0.5);
  EXPECT_EQ(db.generation(), g0);  // Staging is not a mutation.
  batch.Commit();
  EXPECT_GT(db.generation(), g0);
  const uint64_t g1 = db.generation();
  batch.Commit();  // Empty commit: no mutation, no bump.
  EXPECT_EQ(db.generation(), g1);
}

// ---------------------------------------------------------------------------
// TieredSeries: sealing is content-preserving and compresses.
// ---------------------------------------------------------------------------

TimeSeries SmoothSeries(size_t n, uint64_t seed) {
  Rng rng(seed);
  TimeSeries series;
  for (size_t i = 0; i < n; ++i) {
    series.Append(static_cast<TimePoint>(i) * 600, rng.Normal(0.05, 0.001));
  }
  return series;
}

// TryMaterializeFrom's `begin` that reads every chunk.
constexpr TimePoint kAllHistory = std::numeric_limits<TimePoint>::min();

void ExpectSameSeries(const TimeSeries& a, const TimeSeries& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.timestamps(), b.timestamps());
  EXPECT_EQ(a.values(), b.values());
}

// Appends every point of `series`, each after all stored points.
void AppendAll(TieredSeries& tiered, const TimeSeries& series) {
  for (size_t i = 0; i < series.size(); ++i) {
    ASSERT_EQ(tiered.TryAppend(series.timestamps()[i], series.values()[i]),
              AppendOutcome::kAppended);
  }
}

TEST(TieredSeriesTest, SealPreservesContentBitExactly) {
  const TimeSeries reference = SmoothSeries(3000, 7);
  TieredSeries tiered(256);
  AppendAll(tiered, reference);
  EXPECT_EQ(tiered.sealed_points(), 0u);
  tiered.SealBefore(2000 * 600);
  EXPECT_EQ(tiered.sealed_points(), 2000u);
  EXPECT_EQ(tiered.tail().size(), 1000u);
  EXPECT_EQ(tiered.size(), reference.size());
  EXPECT_GT(tiered.chunk_count(), 1u);  // 2000 points at 256/chunk.

  TimeSeries materialized;
  ASSERT_TRUE(tiered.TryMaterializeFrom(kAllHistory, materialized).ok());
  ExpectSameSeries(materialized, reference);
}

TEST(TieredSeriesTest, SealedHistoryCompresses) {
  TieredSeries tiered(1024);
  const TimeSeries reference = SmoothSeries(5000, 11);
  AppendAll(tiered, reference);
  tiered.SealBefore(reference.end_time() + 1);  // Seal everything.
  EXPECT_EQ(tiered.tail().size(), 0u);
  // Raw storage is 16 bytes/point; the acceptance bar for the tiered store
  // is >= 2x reduction even on full-precision noisy values.
  EXPECT_LT(static_cast<double>(tiered.sealed_bytes()),
            0.5 * 16.0 * static_cast<double>(tiered.sealed_points()));
}

TEST(TieredSeriesTest, TailCoversAndAppendAfterSeal) {
  TieredSeries tiered(128);
  for (TimePoint t = 600; t <= 600 * 100; t += 600) {
    ASSERT_EQ(tiered.TryAppend(t, 1.0), AppendOutcome::kAppended);
  }
  tiered.SealBefore(600 * 50);
  EXPECT_FALSE(tiered.TailCovers(600 * 49));  // Sealed history overlaps.
  EXPECT_TRUE(tiered.TailCovers(600 * 50));   // Sealed last is 49*600.
  // Appends keep working after sealing.
  EXPECT_EQ(tiered.TryAppend(600 * 101, 2.0), AppendOutcome::kAppended);
  EXPECT_EQ(tiered.size(), 101u);

  TimeSeries out;
  // Range beyond data: tail only.
  ASSERT_TRUE(tiered.TryMaterializeFrom(600 * 200, out).ok());
  EXPECT_EQ(out.size(), tiered.tail().size());
}

TEST(TieredSeriesTest, DropBeforeAcrossChunks) {
  const TimeSeries reference = SmoothSeries(1000, 13);
  TieredSeries tiered(100);
  AppendAll(tiered, reference);
  tiered.SealBefore(900 * 600);

  // Cutoff in the middle of the 4th chunk: 3 whole chunks dropped, the
  // straddling chunk re-encoded, everything at/after the cutoff intact.
  const TimePoint cutoff = 350 * 600;
  tiered.DropBefore(cutoff);
  TimeSeries materialized;
  ASSERT_TRUE(tiered.TryMaterializeFrom(kAllHistory, materialized).ok());
  TimeSeries expected = reference;
  expected.DropBefore(cutoff);
  ExpectSameSeries(materialized, expected);
  EXPECT_EQ(tiered.size(), expected.size());

  // Cutoff beyond the sealed history: only the tail remains.
  tiered.DropBefore(950 * 600);
  EXPECT_EQ(tiered.sealed_points(), 0u);
  EXPECT_EQ(tiered.size(), 50u);
}

// ---------------------------------------------------------------------------
// SeriesForScan: zero-copy on the raw tail, decode-to-scratch over sealed
// history, miss accounting; Find's owned copy.
// ---------------------------------------------------------------------------

TEST(SeriesForScanTest, TailOnlySeriesIsZeroCopy) {
  TimeSeriesDatabase db;
  const MetricId id{"svc", MetricKind::kCpu, "", ""};
  TimeSeries written;
  for (TimePoint t = 600; t <= 600 * 100; t += 600) {
    written.Append(t, 0.5);
  }
  CommitSeries(db, id, written);
  TimeSeries scratch;
  Status status;
  const TimeSeries* series = db.SeriesForScan(id, 600 * 50, scratch, &status);
  ASSERT_NE(series, nullptr);
  EXPECT_TRUE(status.ok());
  EXPECT_NE(series, &scratch);  // No decode happened...
  // ...it is the stored series itself: the same object on every lookup,
  // holding every point.
  EXPECT_EQ(db.SeriesForScan(id, 600 * 50, scratch, &status), series);
  ExpectSameSeries(*series, *db.Find(id));
  EXPECT_TRUE(scratch.empty());
}

TEST(SeriesForScanTest, SealedHistoryDecodesIntoScratch) {
  TsdbOptions options;
  options.seal_chunk_points = 64;
  TimeSeriesDatabase db(options);
  const MetricId id{"svc", MetricKind::kGcpu, "sub", ""};
  const TimeSeries reference = SmoothSeries(500, 17);
  CommitSeries(db, id, reference);
  db.SealBefore(400 * 600);

  // Scan range entirely inside the raw tail: still zero-copy.
  TimeSeries scratch;
  Status status;
  const TimeSeries* tail_scan = db.SeriesForScan(id, 400 * 600, scratch, &status);
  ASSERT_NE(tail_scan, nullptr);
  EXPECT_NE(tail_scan, &scratch);
  EXPECT_EQ(tail_scan->size(), 100u);

  // Scan range reaching into sealed history: decoded into the scratch
  // buffer, never later than `begin`, bit-exact.
  const TimePoint begin = 200 * 600;
  const TimeSeries* deep_scan = db.SeriesForScan(id, begin, scratch, &status);
  ASSERT_EQ(deep_scan, &scratch);
  EXPECT_TRUE(status.ok());
  ASSERT_GT(scratch.size(), 0u);
  EXPECT_LE(scratch.start_time(), begin);
  EXPECT_EQ(scratch.end_time(), reference.end_time());
  const auto [first, last] = scratch.SliceIndices(begin, reference.end_time() + 1);
  const auto [ref_first, ref_last] =
      reference.SliceIndices(begin, reference.end_time() + 1);
  ASSERT_EQ(last - first, ref_last - ref_first);
  for (size_t i = 0; i < last - first; ++i) {
    EXPECT_EQ(scratch.timestamps()[first + i], reference.timestamps()[ref_first + i]);
    EXPECT_EQ(scratch.values()[first + i], reference.values()[ref_first + i]);
  }
}

TEST(SeriesForScanTest, FindMaterializesSealedSeries) {
  TsdbOptions options;
  options.seal_chunk_points = 64;
  TimeSeriesDatabase db(options);
  const MetricId id{"svc", MetricKind::kGcpu, "sub", ""};
  const TimeSeries reference = SmoothSeries(300, 19);
  CommitSeries(db, id, reference);
  db.SealBefore(250 * 600);
  const std::optional<TimeSeries> found = db.Find(id);
  ASSERT_TRUE(found.has_value());
  ExpectSameSeries(*found, reference);

  // A later write shows up in the next lookup.
  CommitPoint(db, id, reference.end_time() + 600, 42.0);
  const std::optional<TimeSeries> refound = db.Find(id);
  ASSERT_TRUE(refound.has_value());
  EXPECT_EQ(refound->size(), reference.size() + 1);
  EXPECT_EQ(refound->values().back(), 42.0);
}

TEST(SeriesForScanTest, MissesCountAbsentSeriesWhetherOrNotInterned) {
  TimeSeriesDatabase db;
  CommitPoint(db, MetricId{"svc", MetricKind::kGcpu, "sub", ""}, 600, 1.0);
  CommitPoint(db, MetricId{"svc", MetricKind::kGcpu, "other", ""}, 600, 1.0);
  // Every name of this id is interned, but no series carries it.
  const MetricId interned_absent{"svc", MetricKind::kGcpu, "other", "sub"};
  // "never_seen" was never interned: the id cannot resolve at all.
  const MetricId never_interned{"svc", MetricKind::kGcpu, "never_seen", ""};
  ASSERT_TRUE(db.TryIntern(interned_absent).has_value());
  ASSERT_FALSE(db.TryIntern(never_interned).has_value());

  const uint64_t misses_before = db.scan_stats().misses;
  TimeSeries scratch;
  Status status = Status::DataLoss("overwritten");
  EXPECT_EQ(db.SeriesForScan(interned_absent, 0, scratch, &status), nullptr);
  EXPECT_TRUE(status.ok());
  status = Status::DataLoss("overwritten");
  EXPECT_EQ(db.SeriesForScan(never_interned, 0, scratch, &status), nullptr);
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(db.scan_stats().misses, misses_before + 2);
  EXPECT_FALSE(db.TryIntern(never_interned).has_value());  // Reads intern nothing.
}

TEST(SeriesForScanTest, MemoryStatsTrackTiers) {
  TsdbOptions options;
  options.seal_chunk_points = 128;
  TimeSeriesDatabase db(options);
  const MetricId id{"svc", MetricKind::kCpu, "", ""};
  TimeSeries written;
  for (TimePoint t = 600; t <= 600 * 400; t += 600) {
    written.Append(t, 0.5);
  }
  CommitSeries(db, id, written);
  TimeSeriesDatabase::MemoryStats before = db.memory_stats();
  EXPECT_EQ(before.raw_points, 400u);
  EXPECT_EQ(before.sealed_points, 0u);
  db.SealBefore(600 * 300);
  TimeSeriesDatabase::MemoryStats after = db.memory_stats();
  EXPECT_EQ(after.raw_points, 101u);
  EXPECT_EQ(after.sealed_points, 299u);
  EXPECT_GT(after.resident_sealed_bytes, 0u);
  EXPECT_LT(after.resident_sealed_bytes, after.sealed_raw_bytes());
}

// ---------------------------------------------------------------------------
// Parallel fleet ingestion: thread count and batching must not change
// database content or pipeline output. EXPECT_EQ on doubles on purpose —
// the guarantee is bit-identity.
// ---------------------------------------------------------------------------

constexpr Duration kWorldDuration = Days(2);

std::unique_ptr<FleetSimulator> BuildWorld() {
  auto fleet = std::make_unique<FleetSimulator>();
  for (int s = 0; s < 3; ++s) {
    ServiceConfig config;
    config.name = "svc_" + std::to_string(s);
    config.num_servers = 50;
    config.call_graph.num_subroutines = 30;
    config.sampling.samples_per_bucket = 1000000;
    config.sampling.bucket_width = Minutes(10);
    config.tick = Minutes(10);
    config.num_seasonal_subroutines = 4;
    config.seasonal_mix_amplitude = 0.10;
    config.seed = 100 + static_cast<uint64_t>(s);
    ServiceSimulator* service = fleet->AddService(config);

    InjectedEvent regression;
    regression.kind = EventKind::kStepRegression;
    regression.service = config.name;
    regression.subroutine = service->graph().node(5).name;
    regression.start = Days(1) + Hours(3);
    regression.magnitude = 0.5;
    fleet->InjectEvent(regression);
  }
  return fleet;
}

void ExpectIdenticalDatabases(const TimeSeriesDatabase& a, const TimeSeriesDatabase& b) {
  ASSERT_EQ(a.metric_count(), b.metric_count());
  ASSERT_EQ(a.total_points(), b.total_points());
  const std::vector<MetricId> ids = a.ListMetrics();
  ASSERT_EQ(ids, b.ListMetrics());
  for (const MetricId& id : ids) {
    const std::optional<TimeSeries> series_a = a.Find(id);
    const std::optional<TimeSeries> series_b = b.Find(id);
    ASSERT_TRUE(series_a.has_value()) << id.ToString();
    ASSERT_TRUE(series_b.has_value()) << id.ToString();
    EXPECT_EQ(series_a->timestamps(), series_b->timestamps()) << id.ToString();
    EXPECT_EQ(series_a->values(), series_b->values()) << id.ToString();
  }
}

TEST(ParallelIngestTest, ThreadCountDoesNotChangeDatabaseContent) {
  std::unique_ptr<FleetSimulator> reference = BuildWorld();
  reference->Run(0, kWorldDuration);  // Serial, default batching.

  for (int threads : {2, 8}) {
    std::unique_ptr<FleetSimulator> fleet = BuildWorld();
    FleetIngestOptions options;
    options.threads = threads;
    options.flush_points = 512;  // Different flush cadence on purpose.
    fleet->Run(0, kWorldDuration, options);
    ExpectIdenticalDatabases(reference->db(), fleet->db());
  }
}

PipelineOptions WorldPipelineOptions() {
  PipelineOptions options;
  options.detection.threshold = 0.0005;
  options.detection.windows.historical = Days(1);
  options.detection.windows.analysis = Hours(4);
  options.detection.windows.extended = Hours(2);
  options.detection.rerun_interval = Hours(4);
  options.scan_threads = 2;
  return options;
}

void ExpectIdenticalReports(const std::vector<Regression>& a,
                            const std::vector<Regression>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].metric, b[i].metric) << "report " << i;
    EXPECT_EQ(a[i].long_term, b[i].long_term) << "report " << i;
    EXPECT_EQ(a[i].detected_at, b[i].detected_at) << "report " << i;
    EXPECT_EQ(a[i].change_time, b[i].change_time) << "report " << i;
    EXPECT_EQ(a[i].p_value, b[i].p_value) << "report " << i;
    EXPECT_EQ(a[i].baseline_mean, b[i].baseline_mean) << "report " << i;
    EXPECT_EQ(a[i].regressed_mean, b[i].regressed_mean) << "report " << i;
    EXPECT_EQ(a[i].delta, b[i].delta) << "report " << i;
    EXPECT_EQ(a[i].historical, b[i].historical) << "report " << i;
    EXPECT_EQ(a[i].analysis, b[i].analysis) << "report " << i;
  }
}

TEST(ParallelIngestTest, PipelineOutputIdenticalAcrossIngestThreads) {
  std::vector<std::vector<Regression>> reports;
  for (int threads : {1, 2, 8}) {
    std::unique_ptr<FleetSimulator> fleet = BuildWorld();
    FleetIngestOptions options;
    options.threads = threads;
    fleet->Run(0, kWorldDuration, options);
    Pipeline pipeline(&fleet->db(), &fleet->change_log(), nullptr,
                      WorldPipelineOptions());
    reports.push_back(pipeline.RunPeriod("svc_0", Days(1), kWorldDuration));
  }
  ASSERT_FALSE(reports[0].empty());  // The injected regression must surface.
  for (size_t i = 1; i < reports.size(); ++i) {
    ExpectIdenticalReports(reports[0], reports[i]);
  }
}

TEST(ParallelIngestTest, PipelineOutputIdenticalWithTieringOnAndOff) {
  // Raw database vs one whose first day is sealed into Gorilla chunks: the
  // decode-to-scratch scan path must reproduce the raw output bit-for-bit.
  std::unique_ptr<FleetSimulator> raw = BuildWorld();
  raw->Run(0, kWorldDuration);
  std::unique_ptr<FleetSimulator> tiered = BuildWorld();
  tiered->Run(0, kWorldDuration);
  tiered->db().SealBefore(Days(1) + Hours(6));
  ASSERT_GT(tiered->db().memory_stats().sealed_points, 0u);

  Pipeline raw_pipeline(&raw->db(), &raw->change_log(), nullptr, WorldPipelineOptions());
  Pipeline tiered_pipeline(&tiered->db(), &tiered->change_log(), nullptr,
                           WorldPipelineOptions());
  const std::vector<Regression> raw_reports =
      raw_pipeline.RunPeriod("svc_0", Days(1), kWorldDuration);
  const std::vector<Regression> tiered_reports =
      tiered_pipeline.RunPeriod("svc_0", Days(1), kWorldDuration);
  ASSERT_FALSE(raw_reports.empty());
  ExpectIdenticalReports(raw_reports, tiered_reports);
}

}  // namespace
}  // namespace fbdetect
