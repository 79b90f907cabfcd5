// Scan-path throughput harness. Writes BENCH_pipeline.json.
//
// Two measurements:
//   1. End-to-end Pipeline::RunPeriod series-scans/sec at scan_threads 1
//      and 4. NOTE: thread scaling is only visible with >= 4 hardware cores;
//      the JSON records the machine's core count next to the numbers.
//   2. Telemetry overhead: RunPeriod with the registry off vs on, in paired
//      rounds at scan_threads 1.
//
// `--threads-sweep` instead records RunPeriod at scan_threads 1/2/4/8 into
// BENCH_scaling.json, checking that the reports are identical at every
// thread count.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/check.h"
#include "src/common/random.h"
#include "src/core/pipeline.h"
#include "src/observe/telemetry_export.h"
#include "src/fleet/fleet.h"
#include "src/fleet/scenario.h"
#include "src/stats/descriptive.h"

namespace fbdetect {
namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

struct BenchWorld {
  FleetSimulator fleet;
  ServiceSimulator* service = nullptr;
  // Full mode is long enough to fill a Table-1-style 10-day historical
  // window; smoke mode shrinks the world so CI can exercise the harness.
  Duration duration = Days(12);
  Duration historical = Days(10);
  TimePoint run_begin = Days(11);

  explicit BenchWorld(bool smoke) {
    if (smoke) {
      duration = Days(3);
      historical = Days(2);
      run_begin = Days(2);
    }
    ServiceConfig config;
    config.name = "svc";
    config.num_servers = 100;
    config.call_graph.num_subroutines = 60;
    config.sampling.samples_per_bucket = 1000000;
    config.sampling.bucket_width = Minutes(10);
    config.tick = Minutes(10);
    config.num_seasonal_subroutines = 10;
    config.seasonal_mix_amplitude = 0.10;
    config.seed = 42;
    service = fleet.AddService(config);

    InjectedEvent regression;
    regression.kind = EventKind::kStepRegression;
    regression.service = "svc";
    regression.subroutine = service->graph().node(5).name;
    regression.start = run_begin + Hours(3);
    regression.magnitude = 0.5;
    fleet.InjectEvent(regression);

    fleet.Run(0, duration);
  }

  PipelineOptions Options(int scan_threads) const {
    PipelineOptions options;
    options.detection.threshold = 0.0005;
    options.detection.windows.historical = historical;
    options.detection.windows.analysis = Hours(4);
    options.detection.windows.extended = Hours(2);
    options.detection.rerun_interval = Hours(4);
    options.scan_threads = scan_threads;
    return options;
  }
};

// Order-sensitive hash of every detection-relevant field, so two RunPeriod
// outputs compare byte-identical without materializing a canonical dump.
uint64_t FingerprintRegressions(const std::vector<Regression>& regressions) {
  uint64_t h = 0x9e3779b97f4a7c15ull ^ regressions.size();
  const auto mix = [&h](uint64_t v) {
    h ^= v;
    (void)SplitMix64(h);
  };
  const auto mix_double = [&](double v) { mix(std::bit_cast<uint64_t>(v)); };
  for (const Regression& r : regressions) {
    mix(std::hash<std::string>{}(r.metric.ToString()));
    mix(r.long_term ? 1 : 0);
    mix(static_cast<uint64_t>(r.detected_at));
    mix(static_cast<uint64_t>(r.change_time));
    mix(r.change_index);
    mix_double(r.baseline_mean);
    mix_double(r.regressed_mean);
    mix_double(r.delta);
    mix_double(r.relative_delta);
    mix_double(r.p_value);
    mix(r.historical.size());
    for (double v : r.historical) {
      mix_double(v);
    }
    mix(r.analysis.size());
    for (double v : r.analysis) {
      mix_double(v);
    }
    for (TimePoint t : r.analysis_timestamps) {
      mix(static_cast<uint64_t>(t));
    }
    mix(r.extended_size);
    for (int64_t c : r.candidate_root_causes) {
      mix(static_cast<uint64_t>(c));
    }
  }
  return h;
}

}  // namespace
}  // namespace fbdetect

int main(int argc, char** argv) {
  using namespace fbdetect;
  using Clock = std::chrono::steady_clock;

  bool smoke = false;
  bool threads_sweep = false;
  std::string telemetry_out;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
    } else if (std::string(argv[i]) == "--threads-sweep") {
      threads_sweep = true;
    } else if (std::string(argv[i]) == "--telemetry-out" && i + 1 < argc) {
      telemetry_out = argv[++i];
    }
  }

  PrintHeader(std::string("Scan-path throughput: thread pool, telemetry") +
              (smoke ? " [smoke]" : "") + (threads_sweep ? " [threads-sweep]" : ""));
  const unsigned hw_cores = std::thread::hardware_concurrency();
  std::printf("hardware cores: %u\n", hw_cores);

  // --- Threads sweep: the multicore rig (EXPERIMENTS.md) -----------------
  // End-to-end RunPeriod per-core-count curve into BENCH_scaling.json; the
  // regular sections are skipped.
  if (threads_sweep) {
    BenchWorld sweep_world(smoke);
    const size_t num_ids = sweep_world.fleet.db().ListMetrics("svc").size();
    const std::vector<int> threads_list = {1, 2, 4, 8};
    std::vector<double> sweep_ms;
    uint64_t baseline_fp = 0;
    size_t reruns = 0;
    std::printf("\nRunPeriod threads sweep (%zu metrics)\n", num_ids);
    for (int threads : threads_list) {
      Pipeline pipeline(&sweep_world.fleet.db(), &sweep_world.fleet.change_log(), nullptr,
                        sweep_world.Options(threads));
      const auto sweep_t0 = Clock::now();
      const std::vector<Regression> regressions =
          pipeline.RunPeriod("svc", sweep_world.run_begin, sweep_world.duration);
      const double ms = MillisSince(sweep_t0);
      // Detection output byte-identical at every scan_threads setting.
      const uint64_t fp = FingerprintRegressions(regressions);
      if (threads == threads_list.front()) {
        baseline_fp = fp;
      } else {
        FBD_CHECK(fp == baseline_fp);
      }
      reruns = static_cast<size_t>((sweep_world.duration - sweep_world.run_begin) /
                                   pipeline.options().detection.rerun_interval);
      sweep_ms.push_back(ms);
      std::printf("    threads=%d: %8.1f ms   speedup vs 1: %.2fx\n", threads, ms,
                  sweep_ms[0] / ms);
    }
    char extra[128];
    std::snprintf(extra, sizeof(extra), "{\"series_scans\": %zu, \"curve\": ",
                  num_ids * reruns);
    UpdateBenchScalingJson("pipeline_sweep",
                           extra + ThreadsCurveJson(threads_list, sweep_ms) + "}");
    return 0;
  }

  // --- 1. End-to-end RunPeriod, 1 vs 4 scan threads ---------------------
  BenchWorld world(smoke);
  const size_t num_ids = world.fleet.db().ListMetrics("svc").size();
  std::printf("\n[1] end-to-end RunPeriod (scan_threads 1 vs 4)\n");
  double run_ms_1 = 0.0;
  double run_ms_4 = 0.0;
  size_t reruns = 0;
  for (int threads : {1, 4}) {
    Pipeline pipeline(&world.fleet.db(), &world.fleet.change_log(), nullptr,
                      world.Options(threads));
    const auto t0 = Clock::now();
    pipeline.RunPeriod("svc", world.run_begin, world.duration);
    const double ms = MillisSince(t0);
    reruns = static_cast<size_t>((world.duration - world.run_begin) /
                                 pipeline.options().detection.rerun_interval);
    const double scans = static_cast<double>(num_ids * reruns);
    std::printf("    threads=%d: %8.1f ms  (%.0f series-scans/sec)\n", threads, ms,
                scans / (ms / 1000.0));
    (threads == 1 ? run_ms_1 : run_ms_4) = ms;
  }
  const double series_scans = static_cast<double>(num_ids * reruns);

  // --- 2. Telemetry overhead: RunPeriod with the stage clocks off vs on --
  // The off-by-default contract: with telemetry disabled the hot path does
  // zero clock reads, and with it enabled the cost stays under 5% (asserted
  // in smoke mode, where CI runs this harness). Each round runs the two back
  // to back, alternating which goes first, and the gate reads the median of
  // the rounds' on/off ratios: a slow spell of the host lands on both halves
  // of a round and cancels in its ratio, where it would move a minimum over
  // a few separate runs, while a real cost shows in every round. One scan
  // thread, the setting of perfbench's gated `detect` workload, keeps the
  // round-to-round spread narrower than two threads do.
  constexpr int kTelemetryRounds = 31;
  constexpr int kTelemetryScanThreads = 1;
  std::printf("\n[2] telemetry overhead (RunPeriod, scan_threads %d, median of %d paired rounds)\n",
              kTelemetryScanThreads, kTelemetryRounds);
  std::vector<double> off_ms;
  std::vector<double> on_ms;
  std::vector<double> ratios;
  for (int round = 0; round < kTelemetryRounds; ++round) {
    double ms[2] = {0.0, 0.0};  // Indexed by `enabled`.
    for (int side = 0; side < 2; ++side) {
      const bool enabled = (round + side) % 2 == 1;
      PipelineOptions observed = world.Options(kTelemetryScanThreads);
      observed.telemetry.enabled = enabled;
      Pipeline pipeline(&world.fleet.db(), &world.fleet.change_log(), nullptr, observed);
      const auto t0 = Clock::now();
      pipeline.RunPeriod("svc", world.run_begin, world.duration);
      ms[enabled] = MillisSince(t0);
      if (enabled && round == kTelemetryRounds - 1 && !telemetry_out.empty()) {
        FBD_CHECK(WriteTelemetryFile({&world.fleet.db().telemetry(), &pipeline.telemetry()},
                                     telemetry_out));
        std::printf("    wrote %s\n", telemetry_out.c_str());
      }
    }
    off_ms.push_back(ms[0]);
    on_ms.push_back(ms[1]);
    ratios.push_back(ms[1] / ms[0]);
  }
  const double telemetry_off_ms = Median(off_ms);
  const double telemetry_on_ms = Median(on_ms);
  const double telemetry_ratio = Median(ratios);
  const double telemetry_overhead = telemetry_ratio - 1.0;
  std::printf("    off: %8.1f ms   on: %8.1f ms   overhead: %+.2f%% (median round)\n",
              telemetry_off_ms, telemetry_on_ms, telemetry_overhead * 100.0);
  if (smoke) {
    FBD_CHECK(telemetry_ratio <= 1.05);
  }

  // --- JSON -------------------------------------------------------------
  FILE* json = std::fopen("BENCH_pipeline.json", "w");
  FBD_CHECK(json != nullptr);
  std::fprintf(json, "{\n");
  WriteHardwareJson(json);
  std::fprintf(json, ",\n");
  std::fprintf(json, "  \"hardware_cores\": %u,\n", hw_cores);
  std::fprintf(json, "  \"run_period\": {\"series_scans\": %.0f, \"threads1_ms\": %.1f, "
                     "\"threads4_ms\": %.1f, \"threads1_scans_per_sec\": %.0f, "
                     "\"threads4_scans_per_sec\": %.0f},\n",
               series_scans, run_ms_1, run_ms_4, series_scans / (run_ms_1 / 1000.0),
               series_scans / (run_ms_4 / 1000.0));
  std::fprintf(json, "  \"telemetry_overhead\": {\"rounds\": %d, \"off_ms\": %.1f, "
                     "\"on_ms\": %.1f, \"overhead_fraction\": %.4f}\n",
               kTelemetryRounds, telemetry_off_ms, telemetry_on_ms, telemetry_overhead);
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("\nwrote BENCH_pipeline.json\n");
  return 0;
}
