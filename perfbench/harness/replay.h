// Per-layer replay for the traced run: the acked bodies, seals and /run
// schedule a pass sent are applied again, in the order the pass sent
// them, to a fresh durable database through the layers' public functions,
// timing each call from the benchmark's own code.
#ifndef PERFBENCH_HARNESS_REPLAY_H_
#define PERFBENCH_HARNESS_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness/service.h"
#include "src/tsdb/database.h"

namespace perfbench {

struct Replay {
  // service: ParseWireBatch.
  double parse_ns = 0;
  uint64_t parsed_points = 0;
  // tsdb: TimeSeriesDatabase::Intern, WriteBatch::Add + Commit.
  double intern_ns = 0;
  uint64_t interned_series = 0;
  double commit_ns = 0;
  uint64_t committed_points = 0;
  // tsdb: SealBefore and SyncDurable at each /seal boundary.
  std::vector<double> seal_ms;
  std::vector<double> sync_ms;
  // core: Pipeline::RunAt (telemetry off) for the timed /run spans.
  std::vector<double> run_ms;
  // report: ToJsonLine.
  double render_ns = 0;
  uint64_t lines = 0;
  // tsdb accessors at the end of the replay (scan counters over its runs).
  fbdetect::TimeSeriesDatabase::DurableStats durable;
  fbdetect::TimeSeriesDatabase::ScanStats scan;
  fbdetect::TimeSeriesDatabase::MemoryStats memory;
  // Per input span: the replayed cost in ms (ingest: parse + intern +
  // commit; run: RunAt + render; seal: SealBefore + SyncDurable) and, for
  // runs, the NDJSON body the offline pipeline rendered.
  std::vector<double> cost_ms;
  std::vector<std::string> bodies;
};

// `spans` in send order. Replays every acked ingest, every seal and every
// /run of the pass, set-up included, so the offline pipeline sees the same
// history the served one did.
Replay ReplaySpans(const std::vector<Span>& spans, int scan_threads,
                   const std::string& scratch_parent);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_REPLAY_H_
