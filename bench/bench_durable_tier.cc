// Durable-tier harness for the chunk files and the group-commit write-ahead
// log (DESIGN.md §15). Writes BENCH_durable.json.
//
// Two measurements:
//   1. Group-commit throughput: time-interleaved ingest with fsync on, swept
//      over group_commit_bytes. Larger groups amortize the write()+fsync()
//      pair over more points; the commit counts make the batching visible.
//   2. Recovery time vs log length: reopen cost after a clean close with the
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
// instead of the near-zero cost of constant series), so the chunks a
// checkpoint writes are the size sealed fleet telemetry actually has.
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

  // --- 1: group-commit sweep ----------------------------------------------
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

  // --- 2: recovery vs log length ------------------------------------------
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
  std::fprintf(json, "  \"group_commit\": [\n");
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
