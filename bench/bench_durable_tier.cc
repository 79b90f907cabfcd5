// Durable-tier harness for the memory-mapped chunk tier and its group-commit
// write-ahead log (DESIGN.md §15). Writes BENCH_durable.json.
//
// Four measurements:
//   1. Resident memory at scale: the same fleet-shaped workload sealed into
//      (a) the RAM-only tiered store and (b) the durable tier under a small
//      resident-sealed budget, at 10k and 100k series. Reports heap-resident
//      bytes (raw tails + resident sealed chunks) for both. The acceptance bar is >= 2x reduction with tail_hits unchanged:
//      eviction must never degrade the zero-copy tail fast path.
//   2. Cold readback: full-history scans against the evicted database, every
//      sealed chunk decoded straight from the memory-mapped chunk file
//      through the two-phase bit reader. Reports decode throughput.
//   3. Group-commit throughput: time-interleaved ingest with fsync on, swept
//      over group_commit_bytes. Larger groups amortize the write()+fsync()
//      pair over more points; the commit counts make the batching visible.
//   4. Recovery time vs log length: reopen cost after a clean close with the
//      whole history in the WAL (no checkpoint) at several log lengths, and
//      after a checkpoint, where the log holds only cutoff + seal boundary +
//      tail snapshots and recovery cost is bounded by the working set.
//
// `--smoke` shrinks every dimension so CI can exercise the full harness in
// seconds; the JSON notes which mode produced it.
#include <dirent.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/check.h"
#include "src/common/random.h"
#include "src/tsdb/database.h"
#include "src/tsdb/metric_id.h"
#include "src/tsdb/timeseries.h"

namespace fbdetect {
namespace {

constexpr TimePoint kTick = 600;

TimePoint TimeAt(size_t step) { return static_cast<TimePoint>(step + 1) * kTick; }

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

// ---------------------------------------------------------------------------
// Temp directories (RAII so aborted runs don't leak /tmp).
// ---------------------------------------------------------------------------

struct ScopedDir {
  std::string path;

  explicit ScopedDir(const char* tag) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "/tmp/fbd_bench_durable_%s_XXXXXX", tag);
    const char* dir = mkdtemp(buf);
    FBD_CHECK(dir != nullptr);
    path = dir;
  }

  ~ScopedDir() {
    if (DIR* d = opendir(path.c_str())) {
      while (const dirent* entry = readdir(d)) {
        const std::string name = entry->d_name;
        if (name != "." && name != "..") {
          (void)unlink((path + "/" + name).c_str());
        }
      }
      closedir(d);
    }
    (void)rmdir(path.c_str());
  }
};

// ---------------------------------------------------------------------------
// Workload: fleet-shaped identities, noisy gauge values. The noise matters —
// random low bits keep Gorilla's value compression honest (~9 bytes/point
// instead of the near-zero cost of constant series), so the resident-memory
// comparison reflects what sealed fleet telemetry actually costs on the heap.
// ---------------------------------------------------------------------------

std::vector<MetricId> MakeIds(size_t num_series) {
  std::vector<MetricId> ids;
  ids.reserve(num_series);
  for (size_t i = 0; i < num_series; ++i) {
    ids.push_back(MetricId{"svc_" + std::to_string(i / 100), MetricKind::kGcpu,
                           "subroutine_" + std::to_string(i % 100), ""});
  }
  return ids;
}

// Series-major ingest (each series' timestamps are appended in order, which
// is all the write path requires), committed every few series so the staged
// batch never rivals the database's own footprint.
void Ingest(TimeSeriesDatabase& db, const std::vector<MetricId>& ids, size_t num_points) {
  WriteBatch batch(&db);
  Rng rng(0x9E3779B97F4A7C15ULL);
  for (size_t i = 0; i < ids.size(); ++i) {
    const InternedMetricId id = db.Intern(ids[i]);
    const double base = 10.0 + static_cast<double>(i % 97);
    for (size_t step = 0; step < num_points; ++step) {
      batch.Add(id, TimeAt(step), base + rng.Uniform(-1.0, 1.0));
    }
    if ((i + 1) % 64 == 0 || i + 1 == ids.size()) {
      batch.Commit();
    }
  }
}

// Heap-resident bytes attributable to series storage: mutable raw tails plus
// sealed chunks still on the heap. Mapped sealed bytes are excluded on
// purpose — they live in the chunk file and cost page cache, which the
// kernel reclaims under pressure, not heap.
size_t ResidentBytes(const TimeSeriesDatabase& db) {
  const auto m = db.memory_stats();
  return m.raw_points * 16 + m.resident_sealed_bytes;
}

struct ScaleResult {
  size_t num_series = 0;
  size_t num_points = 0;
  size_t ram_resident = 0;
  size_t durable_resident = 0;
  size_t mapped_bytes = 0;
  double reduction = 0.0;
  uint64_t ram_tail_hits = 0;
  uint64_t durable_tail_hits = 0;
  double cold_ms = 0.0;
  double cold_mpts = 0.0;
  uint64_t cold_mapped_decodes = 0;
};

ScaleResult RunScale(size_t num_series, size_t num_points, size_t tail_points) {
  ScaleResult result;
  result.num_series = num_series;
  result.num_points = num_points;
  const std::vector<MetricId> ids = MakeIds(num_series);
  const TimePoint seal_boundary = TimeAt(num_points - tail_points);

  // Tail scan: one SeriesForScan per series with `begin` inside the tail, the
  // pipeline's steady-state read. Every lookup must stay a zero-copy tail hit.
  const auto scan_tails = [&](TimeSeriesDatabase& db) {
    const uint64_t before = db.scan_stats().tail_hits;
    TimeSeries scratch;
    Status status;
    size_t total = 0;
    for (const MetricId& id : ids) {
      scratch.Clear();
      const TimeSeries* series = db.SeriesForScan(id, seal_boundary, scratch, &status);
      FBD_CHECK(series != nullptr);
      total += series->size();
    }
    FBD_CHECK(total == num_series * tail_points);
    return db.scan_stats().tail_hits - before;
  };

  {
    TsdbOptions ram_options;
    TimeSeriesDatabase ram(ram_options);
    Ingest(ram, ids, num_points);
    ram.SealBefore(seal_boundary);
    result.ram_resident = ResidentBytes(ram);
    result.ram_tail_hits = scan_tails(ram);
  }  // Destroyed before the durable build so peak RSS stays one fleet.

  ScopedDir dir("mem");
  TsdbOptions durable_options;
  durable_options.durable.directory = dir.path;
  durable_options.durable.resident_sealed_budget_bytes = 1 << 16;
  durable_options.durable.fsync = false;  // Measuring memory, not commit cost.
  TimeSeriesDatabase durable(durable_options);
  Ingest(durable, ids, num_points);
  durable.SealBefore(seal_boundary);
  result.durable_resident = ResidentBytes(durable);
  result.mapped_bytes = durable.memory_stats().mapped_sealed_bytes;
  result.durable_tail_hits = scan_tails(durable);
  result.reduction =
      static_cast<double>(result.ram_resident) / static_cast<double>(result.durable_resident);

  // Acceptance: >= 2x resident reduction, tail fast path untouched.
  FBD_CHECK(result.reduction >= 2.0);
  FBD_CHECK(result.ram_tail_hits == result.durable_tail_hits);

  // Cold readback on the same evicted database: full-history scans decode
  // every sealed chunk from the mapped chunk file.
  {
    const uint64_t decodes_before = durable.durable_stats().mapped_readback_decodes;
    TimeSeries scratch;
    Status status;
    size_t total = 0;
    const auto start = std::chrono::steady_clock::now();
    for (const MetricId& id : ids) {
      scratch.Clear();
      const TimeSeries* series = durable.SeriesForScan(id, 0, scratch, &status);
      FBD_CHECK(series != nullptr);
      total += series->size();
    }
    result.cold_ms = MillisSince(start);
    FBD_CHECK(total == num_series * num_points);
    result.cold_mapped_decodes =
        durable.durable_stats().mapped_readback_decodes - decodes_before;
    FBD_CHECK(result.cold_mapped_decodes > 0);
    result.cold_mpts = static_cast<double>(total) / 1e6 / (result.cold_ms / 1e3);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Group-commit throughput: time-interleaved ingest (one WriteBatch commit per
// tick across all series, the fleet's emission shape) with fsync on.
// ---------------------------------------------------------------------------

struct CommitResult {
  size_t group_commit_bytes = 0;
  size_t points = 0;
  double ms = 0.0;
  double mpts = 0.0;
  uint64_t group_commits = 0;
  uint64_t log_bytes_written = 0;
};

CommitResult RunGroupCommit(size_t group_commit_bytes, size_t num_series, size_t num_steps) {
  ScopedDir dir("wal");
  TsdbOptions options;
  options.durable.directory = dir.path;
  options.durable.group_commit_bytes = group_commit_bytes;
  options.durable.fsync = true;
  TimeSeriesDatabase db(options);
  const std::vector<MetricId> metric_ids = MakeIds(num_series);
  std::vector<InternedMetricId> ids;
  ids.reserve(metric_ids.size());
  for (const MetricId& id : metric_ids) {
    ids.push_back(db.Intern(id));
  }
  WriteBatch batch(&db);
  Rng rng(0xC0FFEE);
  const auto start = std::chrono::steady_clock::now();
  for (size_t step = 0; step < num_steps; ++step) {
    for (size_t i = 0; i < ids.size(); ++i) {
      batch.Add(ids[i], TimeAt(step), 50.0 + rng.Uniform(-1.0, 1.0));
    }
    batch.Commit();
  }
  db.SyncDurable();
  CommitResult result;
  result.group_commit_bytes = group_commit_bytes;
  result.points = num_series * num_steps;
  result.ms = MillisSince(start);
  result.mpts = static_cast<double>(result.points) / 1e6 / (result.ms / 1e3);
  result.group_commits = db.durable_stats().group_commits;
  result.log_bytes_written = db.durable_stats().log_bytes_written;
  return result;
}

// ---------------------------------------------------------------------------
// Recovery time vs log length. `checkpoint` seals (and thus rewrites every
// WAL down to cutoff + boundary + tail snapshots) before closing.
// ---------------------------------------------------------------------------

struct RecoveryResult {
  std::string mode;
  size_t ingested_points = 0;
  uint64_t log_bytes = 0;
  uint64_t recovered_points = 0;
  uint64_t recovered_chunks = 0;
  double open_ms = 0.0;
  double replay_mpts = 0.0;
};

RecoveryResult RunRecovery(const std::string& mode, size_t num_series, size_t num_steps,
                           bool checkpoint) {
  ScopedDir dir("rec");
  TsdbOptions options;
  options.durable.directory = dir.path;
  options.durable.fsync = false;
  RecoveryResult result;
  result.mode = mode;
  result.ingested_points = num_series * num_steps;
  {
    TimeSeriesDatabase db(options);
    Ingest(db, MakeIds(num_series), num_steps);
    if (checkpoint) {
      db.SealBefore(TimeAt(num_steps - 8));
    }
    db.SyncDurable();
    result.log_bytes = db.durable_stats().log_bytes;
  }  // Clean close.
  const auto start = std::chrono::steady_clock::now();
  TimeSeriesDatabase reopened(options);
  result.open_ms = MillisSince(start);
  const auto stats = reopened.durable_stats();
  result.recovered_points = stats.recovered_points;
  result.recovered_chunks = stats.recovered_chunks;
  FBD_CHECK(reopened.total_points() == result.ingested_points);
  result.replay_mpts =
      static_cast<double>(result.recovered_points) / 1e6 / (result.open_ms / 1e3);
  return result;
}

int Run(bool smoke) {
  std::printf("durable-tier bench%s\n", smoke ? " [smoke]" : "");
  std::printf("hardware: %s\n", HardwareJsonValue().c_str());

  // --- 1 + 2: resident memory and cold readback, per scale -----------------
  PrintHeader("Resident memory: RAM-only vs durable tier (budget 64 KiB)");
  const std::vector<size_t> scales =
      smoke ? std::vector<size_t>{1000, 4000} : std::vector<size_t>{10000, 100000};
  const size_t num_points = smoke ? 96 : 256;
  const size_t tail_points = 8;
  std::vector<ScaleResult> scale_results;
  const std::vector<int> mem_widths = {10, 14, 16, 16, 12, 12};
  PrintRow({"series", "points", "ram_resident", "durable_res", "reduction", "tail_hits"},
           mem_widths);
  for (const size_t scale : scales) {
    scale_results.push_back(RunScale(scale, num_points, tail_points));
    const ScaleResult& r = scale_results.back();
    PrintRow({std::to_string(r.num_series), std::to_string(r.num_series * r.num_points),
              FormatDouble(static_cast<double>(r.ram_resident) / 1048576.0, "%.1f MiB"),
              FormatDouble(static_cast<double>(r.durable_resident) / 1048576.0, "%.1f MiB"),
              FormatDouble(r.reduction, "%.1fx"),
              std::to_string(r.durable_tail_hits) + "=" + std::to_string(r.ram_tail_hits)},
             mem_widths);
  }

  PrintHeader("Cold readback: full-history scans decoded from the mapped chunk file");
  const std::vector<int> cold_widths = {10, 12, 10, 12, 14};
  PrintRow({"series", "points", "ms", "Mpts/s", "mapped_dec"}, cold_widths);
  for (const ScaleResult& r : scale_results) {
    PrintRow({std::to_string(r.num_series), std::to_string(r.num_series * r.num_points),
              FormatDouble(r.cold_ms, "%.1f"), FormatDouble(r.cold_mpts, "%.1f"),
              std::to_string(r.cold_mapped_decodes)},
             cold_widths);
  }

  // --- 3: group-commit sweep ----------------------------------------------
  PrintHeader("Group-commit throughput (fsync on, time-interleaved ingest)");
  const size_t commit_series = smoke ? 200 : 2000;
  const size_t commit_steps = smoke ? 50 : 200;
  const std::vector<size_t> group_bytes =
      smoke ? std::vector<size_t>{4096, 262144}
            : std::vector<size_t>{4096, 65536, 262144, 1 << 20};
  std::vector<CommitResult> commit_results;
  const std::vector<int> commit_widths = {14, 10, 10, 10, 10, 14};
  PrintRow({"group_bytes", "points", "ms", "Mpts/s", "commits", "wal_written"}, commit_widths);
  for (const size_t bytes : group_bytes) {
    commit_results.push_back(RunGroupCommit(bytes, commit_series, commit_steps));
    const CommitResult& r = commit_results.back();
    PrintRow({std::to_string(r.group_commit_bytes), std::to_string(r.points),
              FormatDouble(r.ms, "%.1f"), FormatDouble(r.mpts, "%.2f"),
              std::to_string(r.group_commits),
              FormatDouble(static_cast<double>(r.log_bytes_written) / 1048576.0, "%.1f MiB")},
             commit_widths);
  }

  // --- 4: recovery vs log length ------------------------------------------
  PrintHeader("Recovery time vs log length");
  const size_t rec_series = smoke ? 100 : 1000;
  const size_t rec_steps = smoke ? 80 : 400;
  std::vector<RecoveryResult> recovery_results;
  recovery_results.push_back(RunRecovery("wal_quarter", rec_series, rec_steps / 4, false));
  recovery_results.push_back(RunRecovery("wal_half", rec_series, rec_steps / 2, false));
  recovery_results.push_back(RunRecovery("wal_full", rec_series, rec_steps, false));
  recovery_results.push_back(RunRecovery("checkpointed", rec_series, rec_steps, true));
  const std::vector<int> rec_widths = {14, 10, 12, 12, 10, 10};
  PrintRow({"mode", "points", "log_bytes", "replayed", "open_ms", "Mpts/s"}, rec_widths);
  for (const RecoveryResult& r : recovery_results) {
    PrintRow({r.mode, std::to_string(r.ingested_points), std::to_string(r.log_bytes),
              std::to_string(r.recovered_points), FormatDouble(r.open_ms, "%.1f"),
              FormatDouble(r.replay_mpts, "%.2f")},
             rec_widths);
  }
  // The checkpointed log replays only tail snapshots; it must be a small
  // fraction of the full-history log on both axes.
  FBD_CHECK(recovery_results.back().log_bytes < recovery_results[2].log_bytes / 2);

  // --- JSON ----------------------------------------------------------------
  FILE* json = std::fopen("BENCH_durable.json", "w");
  FBD_CHECK(json != nullptr);
  std::fprintf(json, "{\n");
  WriteHardwareJson(json);
  std::fprintf(json, ",\n  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(json, "  \"resident_memory\": [\n");
  for (size_t i = 0; i < scale_results.size(); ++i) {
    const ScaleResult& r = scale_results[i];
    std::fprintf(json,
                 "    {\"series\": %zu, \"points_per_series\": %zu, "
                 "\"ram_resident_bytes\": %zu, \"durable_resident_bytes\": %zu, "
                 "\"mapped_sealed_bytes\": %zu, \"reduction_x\": %.2f, "
                 "\"tail_hits_ram\": %llu, \"tail_hits_durable\": %llu}%s\n",
                 r.num_series, r.num_points, r.ram_resident, r.durable_resident,
                 r.mapped_bytes, r.reduction,
                 static_cast<unsigned long long>(r.ram_tail_hits),
                 static_cast<unsigned long long>(r.durable_tail_hits),
                 i + 1 < scale_results.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"cold_readback\": [\n");
  for (size_t i = 0; i < scale_results.size(); ++i) {
    const ScaleResult& r = scale_results[i];
    std::fprintf(json,
                 "    {\"series\": %zu, \"points\": %zu, \"ms\": %.2f, "
                 "\"mpts_per_s\": %.2f, \"mapped_decodes\": %llu}%s\n",
                 r.num_series, r.num_series * r.num_points, r.cold_ms, r.cold_mpts,
                 static_cast<unsigned long long>(r.cold_mapped_decodes),
                 i + 1 < scale_results.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"group_commit\": [\n");
  for (size_t i = 0; i < commit_results.size(); ++i) {
    const CommitResult& r = commit_results[i];
    std::fprintf(json,
                 "    {\"group_commit_bytes\": %zu, \"points\": %zu, \"ms\": %.2f, "
                 "\"mpts_per_s\": %.3f, \"group_commits\": %llu, "
                 "\"log_bytes_written\": %llu}%s\n",
                 r.group_commit_bytes, r.points, r.ms, r.mpts,
                 static_cast<unsigned long long>(r.group_commits),
                 static_cast<unsigned long long>(r.log_bytes_written),
                 i + 1 < commit_results.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"recovery\": [\n");
  for (size_t i = 0; i < recovery_results.size(); ++i) {
    const RecoveryResult& r = recovery_results[i];
    std::fprintf(json,
                 "    {\"mode\": \"%s\", \"ingested_points\": %zu, \"log_bytes\": %llu, "
                 "\"recovered_points\": %llu, \"recovered_chunks\": %llu, "
                 "\"open_ms\": %.2f, \"replay_mpts_per_s\": %.2f}%s\n",
                 r.mode.c_str(), r.ingested_points,
                 static_cast<unsigned long long>(r.log_bytes),
                 static_cast<unsigned long long>(r.recovered_points),
                 static_cast<unsigned long long>(r.recovered_chunks), r.open_ms,
                 r.replay_mpts, i + 1 < recovery_results.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\nwrote BENCH_durable.json\n");
  return 0;
}

}  // namespace
}  // namespace fbdetect

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
    }
  }
  return fbdetect::Run(smoke);
}
