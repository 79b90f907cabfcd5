// Table 1 reproduction: all twelve workload configurations detect at their
// configured detection threshold.
//
// For each preset we synthesize a metric series at the preset's window
// geometry (time scaled so every series has a bounded number of points),
// inject a step regression of 2x the configured threshold inside the
// analysis window, and run it through the pipeline's single-series entry
// (Pipeline::ScanSeries), reading the short-term stack's verdicts (change
// point -> went-away -> seasonality -> threshold). We also verify that a
// 0.2x-threshold step is NOT reported (the threshold filter works both ways).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/random.h"
#include "src/core/pipeline.h"
#include "src/core/workload_config.h"
#include "src/tsdb/database.h"

namespace fbdetect {
namespace {

struct RunResult {
  bool change_point = false;
  bool went_away_kept = false;
  bool seasonality_kept = false;
  bool threshold_passed = false;

  bool Reported() const {
    return change_point && went_away_kept && seasonality_kept && threshold_passed;
  }
};

RunResult RunPreset(const DetectionConfig& preset, double step_multiple, uint64_t seed) {
  DetectionConfig config = preset;

  // Scale time so the historical window has ~600 points.
  const Duration tick = std::max<Duration>(Minutes(10), config.windows.historical / 600);

  // Metric family: gCPU-like for absolute rows, throughput-like for the
  // relative CT rows. Noise: modest relative to the detectable step so the
  // long windows matter. gCPU is a fraction of stack samples and cannot be
  // negative, so an absolute row's baseline sits at least five noise sds
  // above zero (only FrontFaaS (large), whose 3% threshold brings 2.4% noise,
  // needs more than 0.02).
  const bool relative = config.threshold_mode == ThresholdMode::kRelative;
  const double absolute_noise = config.threshold * 0.8;
  const double baseline = relative ? 1000.0 : std::max(0.02, 5.0 * absolute_noise);
  const double step =
      relative ? config.threshold * baseline * step_multiple : config.threshold * step_multiple;
  const double noise = relative ? baseline * 0.01 : absolute_noise;

  const Duration total = config.windows.Total();
  const TimePoint step_at = total - config.windows.extended - config.windows.analysis / 2;
  const MetricId metric{"svc",
                        relative ? MetricKind::kMaxThroughput : MetricKind::kGcpu,
                        relative ? "" : "sub_x", ""};
  Rng rng(seed);
  TimeSeriesDatabase db;
  const InternedMetricId id = db.Intern(metric);
  WriteBatch batch(&db);
  // CT rows monitor throughput, where the regression direction is a DROP.
  const double direction = relative ? -1.0 : 1.0;
  for (TimePoint t = 0; t < total; t += tick) {
    const double level = baseline + (t >= step_at ? direction * step : 0.0);
    batch.Add(id, t, rng.Normal(level, noise));
  }
  batch.Commit();

  // The CT rows measure throughput where regressions are drops; the scan
  // orients the delta, so the threshold check is uniform.
  PipelineOptions options;
  options.detection = config;
  Pipeline pipeline(&db, nullptr, nullptr, options);
  const SeriesVerdicts verdicts = pipeline.ScanSeries(metric, total);
  RunResult result;
  result.change_point = verdicts.change_point.has_value();
  result.went_away_kept = verdicts.went_away.has_value() && verdicts.went_away->keep;
  result.seasonality_kept =
      verdicts.seasonality.has_value() && !verdicts.seasonality->seasonal_filtered;
  result.threshold_passed = verdicts.threshold.value_or(false);
  return result;
}

}  // namespace
}  // namespace fbdetect

int main() {
  using namespace fbdetect;
  PrintHeader("Table 1 — twelve workload configurations detect at their thresholds");
  const std::vector<int> widths = {22, 12, 10, 12, 12, 12, 16, 16};
  PrintRow({"Workload", "Threshold", "Mode", "Historical", "Analysis", "Extended",
            "detect @2.0x?", "reject @0.2x?"},
           widths);
  int detected = 0;
  int rejected = 0;
  int total = 0;
  uint64_t seed = 1;
  for (const DetectionConfig& preset : AllTable1Configs()) {
    const RunResult strong = RunPreset(preset, 2.0, seed++);
    const RunResult weak = RunPreset(preset, 0.2, seed++);
    ++total;
    detected += strong.Reported() ? 1 : 0;
    rejected += weak.Reported() ? 0 : 1;
    PrintRow({preset.name,
              FormatPercent(preset.threshold, 3),
              preset.threshold_mode == ThresholdMode::kAbsolute ? "abs" : "rel",
              std::to_string(preset.windows.historical / kDay) + "d",
              std::to_string(preset.windows.analysis / kHour) + "h",
              preset.windows.extended == 0
                  ? "N/A"
                  : std::to_string(preset.windows.extended / kHour) + "h",
              strong.Reported() ? "YES" : "MISS",
              weak.Reported() ? "FALSE-POS" : "yes"},
             widths);
  }
  std::printf("\nSummary: %d/%d presets detect a 2x-threshold step; %d/%d reject a "
              "0.2x-threshold step.\n", detected, total, rejected, total);
  return 0;
}
