// Quickstart: the smallest end-to-end FBDetect program.
//
// 1. Write a few subroutine-level gCPU series into the time-series database
//    (here: synthetic, with a planted 10% step regression in one of them).
// 2. Configure detection windows and a threshold.
// 3. Run the pipeline and print the reported regressions.
//
// Build & run:  ./build/examples/quickstart
//               ./build/examples/quickstart --telemetry-out telemetry.json
#include <cstdio>
#include <string>

#include "src/common/random.h"
#include "src/core/pipeline.h"
#include "src/observe/telemetry_export.h"
#include "src/tsdb/database.h"

using namespace fbdetect;

int main(int argc, char** argv) {
  std::string telemetry_out;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--telemetry-out" && i + 1 < argc) {
      telemetry_out = argv[++i];
    }
  }
  // --- 1. Ingest data ------------------------------------------------------
  TimeSeriesDatabase db;
  Rng rng(7);
  const Duration tick = Minutes(10);
  const Duration total = Days(3);
  const TimePoint regression_at = total - Hours(5);

  // Points enter the database through a WriteBatch: intern each series'
  // identity once, stage its points, then commit the batch.
  WriteBatch batch(&db);
  for (int sub = 0; sub < 8; ++sub) {
    const InternedMetricId metric =
        db.Intern({"demo_service", MetricKind::kGcpu, "sub_" + std::to_string(sub), ""});
    const double baseline = 0.01 + 0.005 * sub;
    for (TimePoint t = 0; t < total; t += tick) {
      double level = baseline;
      if (sub == 3 && t >= regression_at) {
        level *= 1.10;  // The planted regression: +10% in sub_3.
      }
      batch.Add(metric, t, rng.Normal(level, baseline * 0.02));
    }
  }
  batch.Commit();

  // --- 2. Configure --------------------------------------------------------
  PipelineOptions options;
  options.detection.threshold = 0.0005;            // 0.05% absolute gCPU.
  options.detection.windows.historical = Days(2);  // Baseline.
  options.detection.windows.analysis = Hours(4);   // Where regressions are reported.
  options.detection.windows.extended = Hours(2);   // Persistence check.
  options.detection.rerun_interval = Hours(4);
  options.telemetry.enabled = !telemetry_out.empty();  // Self-observability.

  // --- 3. Detect ------------------------------------------------------------
  Pipeline pipeline(&db, /*change_log=*/nullptr, /*code_info=*/nullptr, options);
  const std::vector<Regression> reports = pipeline.RunPeriod("demo_service", Days(2), total);

  std::printf("Reported regressions: %zu\n", reports.size());
  for (const Regression& report : reports) {
    std::printf("  %s\n", report.Summary().c_str());
  }
  const FunnelStats funnel = pipeline.short_term_funnel();
  std::printf("Funnel: %llu change points -> %llu after went-away -> %llu reported\n",
              static_cast<unsigned long long>(funnel.change_points),
              static_cast<unsigned long long>(funnel.after_went_away),
              static_cast<unsigned long long>(funnel.after_pairwise));
  if (!telemetry_out.empty() &&
      WriteTelemetryFile({&db.telemetry(), &pipeline.telemetry()}, telemetry_out)) {
    std::printf("Wrote telemetry to %s\n", telemetry_out.c_str());
  }
  return 0;
}
