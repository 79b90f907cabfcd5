// Ingestion-path throughput harness for the interned, sharded, tiered
// storage. Writes BENCH_ingest.json.
//
// Three measurements:
//   1. Micro ingest, single thread: the same (series x points) workload,
//      interleaved by time step the way the fleet emits it, pushed through
//      the database's one write path, pre-interned ids + WriteBatch:
//      (a) shard_count = 1;
//      (b) shard_count = 16 (the production configuration);
//      (c) as (b) but with periodic SealBefore, i.e. the tiered store paying
//          its compression cost inline with ingestion.
//   2. Multi-thread scaling: one WriteBatch per worker over disjoint series
//      sets into one shared sharded database, at 1/2/4/8 threads.
//      NOTE: scaling is only visible with enough hardware cores; the JSON
//      records the machine's core count next to the numbers.
//   3. Sealed-history memory: fleet-realistic noisy series sealed into
//      Gorilla chunks; reports compressed bytes vs the 16 bytes/point raw
//      layout. The acceptance bar is >= 2x reduction.
//
// `--smoke` shrinks every dimension so CI can exercise the full harness in
// seconds; the JSON notes which mode produced it.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/check.h"
#include "src/common/random.h"
#include "src/tsdb/database.h"
#include "src/tsdb/metric_id.h"

namespace fbdetect {
namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

struct Workload {
  std::vector<MetricId> ids;
  std::vector<double> values;  // One value per time step, shared by all series.
  size_t num_points = 0;       // Per series.

  size_t total_points() const { return ids.size() * num_points; }
  static TimePoint TimeAt(size_t step) { return static_cast<TimePoint>(step + 1) * 600; }
};

// Fleet-shaped identities: many services, one gCPU series per subroutine.
// Entity names mimic what stack-trace sampling actually produces — long,
// namespace-qualified, templated C++ symbols — which writers intern once per
// series, so the hot path never hashes them.
Workload MakeWorkload(size_t num_services, size_t metrics_per_service, size_t num_points) {
  Workload workload;
  workload.num_points = num_points;
  workload.ids.reserve(num_services * metrics_per_service);
  for (size_t s = 0; s < num_services; ++s) {
    const std::string service = "ads_ranking_inference_tier_" + std::to_string(s);
    for (size_t m = 0; m < metrics_per_service; ++m) {
      workload.ids.push_back(
          {service, MetricKind::kGcpu,
           "facebook::ranking::ScoringEngine<PredictorV" + std::to_string(m % 7) +
               ">::EvaluateCandidateBatch_" + std::to_string(m) + "(RequestContext const&)",
           ""});
    }
  }
  Rng rng(99);
  workload.values.reserve(num_points);
  for (size_t p = 0; p < num_points; ++p) {
    workload.values.push_back(rng.Normal(0.05, 0.001));
  }
  return workload;
}

struct MicroResult {
  double ms = 0.0;
  double mpps = 0.0;  // Million points per second.
};

template <typename Fn>
MicroResult TimeIngest(const Workload& workload, Fn&& ingest) {
  const auto start = std::chrono::steady_clock::now();
  ingest();
  MicroResult result;
  result.ms = MillisSince(start);
  result.mpps = static_cast<double>(workload.total_points()) / (result.ms * 1000.0);
  return result;
}

// Fastest of `reps` runs; `run_once` must build fresh state each call so reps
// are independent.
template <typename Fn>
MicroResult BestOf(int reps, Fn&& run_once) {
  MicroResult best;
  for (int r = 0; r < reps; ++r) {
    const MicroResult result = run_once();
    if (r == 0 || result.ms < best.ms) {
      best = result;
    }
  }
  return best;
}

}  // namespace
}  // namespace fbdetect

int main(int argc, char** argv) {
  using namespace fbdetect;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
    }
  }

  PrintHeader(std::string("Ingestion throughput: interned keys, shards, batches, tiering") +
              (smoke ? " [smoke]" : ""));
  const unsigned hw_cores = std::thread::hardware_concurrency();
  std::printf("hardware cores: %u\n", hw_cores);

  // --- 1. Micro ingest, single thread -----------------------------------
  const size_t num_services = smoke ? 8 : 40;
  const size_t metrics_per_service = smoke ? 10 : 50;
  const size_t num_points = smoke ? 40 : 400;
  const Workload workload = MakeWorkload(num_services, metrics_per_service, num_points);
  std::printf("\n[1] micro ingest: %zu series x %zu points = %zu points, per-service tick order\n",
              workload.ids.size(), workload.num_points, workload.total_points());

  const int reps = smoke ? 1 : 3;

  auto intern_all = [&](TimeSeriesDatabase& db) {
    std::vector<InternedMetricId> interned;
    interned.reserve(workload.ids.size());
    for (const MetricId& id : workload.ids) {
      interned.push_back(db.Intern(id));
    }
    return interned;
  };

  // Fleet emission order: each service's metrics are written tick by tick
  // (one ingest worker owns one service), time-interleaved within a service.
  auto batched = [&](TimeSeriesDatabase& db, const std::vector<InternedMetricId>& keys,
                     size_t flush_points, size_t seal_every_steps) {
    WriteBatch batch(&db);
    for (size_t s = 0; s < num_services; ++s) {
      const size_t first = s * metrics_per_service;
      for (size_t p = 0; p < workload.num_points; ++p) {
        const TimePoint t = Workload::TimeAt(p);
        for (size_t m = 0; m < metrics_per_service; ++m) {
          batch.Add(keys[first + m], t, workload.values[p]);
        }
        if (batch.point_count() >= flush_points) {
          batch.Commit();
        }
        if (seal_every_steps != 0 && (p + 1) % seal_every_steps == 0) {
          batch.Commit();
          db.SealBefore(t + 1);
        }
      }
    }
    batch.Commit();
  };

  auto batched_variant = [&](size_t shard_count, size_t seal_every_steps) {
    return BestOf(reps, [&] {
      TsdbOptions options;
      options.shard_count = shard_count;
      TimeSeriesDatabase db(options);
      const std::vector<InternedMetricId> keys = intern_all(db);
      const MicroResult result =
          TimeIngest(workload, [&] { batched(db, keys, 4096, seal_every_steps); });
      FBD_CHECK(db.total_points() == workload.total_points());
      return result;
    });
  };

  const MicroResult unsharded_batched_result = batched_variant(1, 0);
  const MicroResult sharded_batched_result = batched_variant(16, 0);
  // Tiered: seal the backlog four times over the run, so the Gorilla
  // compression cost lands inside the timed region.
  const MicroResult tiered_result = batched_variant(16, workload.num_points / 4);

  std::printf("    %-38s %8.1f ms  %6.2f Mpts/s\n", "interned + batch, 1 shard:",
              unsharded_batched_result.ms, unsharded_batched_result.mpps);
  std::printf("    %-38s %8.1f ms  %6.2f Mpts/s\n", "interned + batch, 16 shards:",
              sharded_batched_result.ms, sharded_batched_result.mpps);
  std::printf("    %-38s %8.1f ms  %6.2f Mpts/s\n", "interned + batch + inline sealing:",
              tiered_result.ms, tiered_result.mpps);

  // --- 2. Multi-thread scaling ------------------------------------------
  std::printf("\n[2] parallel ingest, one batch per worker, shared sharded db\n");
  // Smoke runs a quarter of the full workload (16 of its 64 services, 240k
  // points): at a few thousand points the 1-thread leg took under a
  // millisecond, so the speedups measured thread start-up, not ingest.
  const size_t scale_services = smoke ? 16 : 64;
  const size_t scale_metrics = 50;
  const size_t scale_points = 300;
  const Workload scale_workload = MakeWorkload(scale_services, scale_metrics, scale_points);
  struct ScalePoint {
    int threads = 0;
    double mpps = 0.0;
    double speedup = 0.0;
  };
  // One leg: a fresh database fed by `threads` workers, one batch each;
  // returns its wall time in milliseconds.
  const auto run_leg = [&](int threads) {
    TsdbOptions options;
    options.shard_count = 64;
    TimeSeriesDatabase db(options);
    std::vector<InternedMetricId> keys;
    keys.reserve(scale_workload.ids.size());
    for (const MetricId& id : scale_workload.ids) {
      keys.push_back(db.Intern(id));
    }
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> workers;
    const size_t services_per_worker =
        (scale_services + static_cast<size_t>(threads) - 1) / static_cast<size_t>(threads);
    for (int w = 0; w < threads; ++w) {
      workers.emplace_back([&, w] {
        const size_t service_begin = static_cast<size_t>(w) * services_per_worker;
        const size_t service_end = std::min(scale_services, service_begin + services_per_worker);
        WriteBatch batch(&db);
        for (size_t s = service_begin; s < service_end; ++s) {
          const size_t first = s * scale_metrics;
          for (size_t p = 0; p < scale_workload.num_points; ++p) {
            const TimePoint t = Workload::TimeAt(p);
            for (size_t m = 0; m < scale_metrics; ++m) {
              batch.Add(keys[first + m], t, scale_workload.values[p]);
            }
            if (batch.point_count() >= 4096) {
              batch.Commit();
            }
          }
        }
        batch.Commit();
      });
    }
    for (std::thread& worker : workers) {
      worker.join();
    }
    const double ms = MillisSince(start);
    FBD_CHECK(db.total_points() == scale_workload.total_points());
    return ms;
  };
  // An untimed first leg: the first database this process fills pays for
  // growing the heap and touching its pages, which would otherwise land on
  // the 1-thread leg alone and inflate every speedup.
  (void)run_leg(1);
  std::vector<ScalePoint> scaling;
  for (int threads : {1, 2, 4, 8}) {
    const double ms = run_leg(threads);
    ScalePoint point;
    point.threads = threads;
    point.mpps = static_cast<double>(scale_workload.total_points()) / (ms * 1000.0);
    point.speedup = scaling.empty() ? 1.0 : point.mpps / scaling.front().mpps;
    scaling.push_back(point);
    std::printf("    threads=%d: %8.1f ms  %6.2f Mpts/s  (%.2fx vs 1 thread)\n", threads, ms,
                point.mpps, point.speedup);
  }

  // --- 3. Sealed-history memory -----------------------------------------
  std::printf("\n[3] sealed history vs raw storage\n");
  const size_t mem_series = smoke ? 20 : 200;
  const size_t mem_points = smoke ? 200 : 2000;
  TimeSeriesDatabase mem_db;
  Rng mem_rng(7);
  for (size_t s = 0; s < mem_series; ++s) {
    const MetricId id{"svc_" + std::to_string(s % 8), MetricKind::kGcpu,
                      "subroutine_" + std::to_string(s), ""};
    const InternedMetricId key = mem_db.Intern(id);
    WriteBatch batch(&mem_db);
    for (size_t p = 0; p < mem_points; ++p) {
      batch.Add(key, Workload::TimeAt(p), mem_rng.Normal(0.05, 0.001));
    }
    batch.Commit();
  }
  mem_db.SealBefore(Workload::TimeAt(mem_points) + 1);
  const TimeSeriesDatabase::MemoryStats stats = mem_db.memory_stats();
  FBD_CHECK(stats.sealed_points == mem_series * mem_points);
  const double ratio = static_cast<double>(stats.sealed_raw_bytes()) /
                       static_cast<double>(stats.resident_sealed_bytes);
  std::printf("    %zu series x %zu points: raw %zu bytes, sealed %zu bytes, %.2fx reduction\n",
              mem_series, mem_points, stats.sealed_raw_bytes(), stats.resident_sealed_bytes,
              ratio);

  // --- JSON -------------------------------------------------------------
  FILE* json = std::fopen("BENCH_ingest.json", "w");
  FBD_CHECK(json != nullptr);
  std::fprintf(json, "{\n");
  WriteHardwareJson(json);
  std::fprintf(json, ",\n");
  std::fprintf(json, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(json, "  \"hardware_cores\": %u,\n", hw_cores);
  std::fprintf(json, "  \"micro_ingest\": {\n");
  std::fprintf(json, "    \"series\": %zu, \"points_per_series\": %zu,\n", workload.ids.size(),
               workload.num_points);
  std::fprintf(json, "    \"interned_batched_1shard_mpps\": %.3f,\n",
               unsharded_batched_result.mpps);
  std::fprintf(json, "    \"interned_batched_16shard_mpps\": %.3f,\n",
               sharded_batched_result.mpps);
  std::fprintf(json, "    \"interned_batched_sealing_mpps\": %.3f\n", tiered_result.mpps);
  std::fprintf(json, "  },\n");
  std::fprintf(json, "  \"thread_scaling\": [\n");
  for (size_t i = 0; i < scaling.size(); ++i) {
    std::fprintf(json, "    {\"threads\": %d, \"mpps\": %.3f, \"speedup_vs_1\": %.2f}%s\n",
                 scaling[i].threads, scaling[i].mpps, scaling[i].speedup,
                 i + 1 < scaling.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json, "  \"tiered_memory\": {\"series\": %zu, \"points_per_series\": %zu, "
                     "\"raw_bytes\": %zu, \"sealed_bytes\": %zu, \"reduction\": %.2f}\n",
               mem_series, mem_points, stats.sealed_raw_bytes(), stats.resident_sealed_bytes,
               ratio);
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("\nwrote BENCH_ingest.json\n");
  return 0;
}
