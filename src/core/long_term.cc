#include "src/core/long_term.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "src/stats/descriptive.h"
#include "src/stats/linreg.h"
#include "src/tsa/dp_changepoint.h"

namespace fbdetect {
namespace {

// A normalized trend whose linear fit has RMSE below this is a gradual ramp
// starting at the analysis window's beginning.
constexpr double kLongTermRmseThreshold = 0.15;

}  // namespace

std::optional<Regression> LongTermDetector::Detect(const MetricId& metric,
                                                   const ScanView& view,
                                                   WindowSeasonality& seasonality,
                                                   Histogram* locate_ns) const {
  const size_t analysis_size = view.analysis_size;
  const size_t hist_size = view.historical_size;
  if (analysis_size < 16 || hist_size < 16) {
    return std::nullopt;
  }
  if (HasNonFinite(view.full)) {
    return std::nullopt;  // Corrupt exporter data: skip this run.
  }

  // Full oriented series: historical + analysis + extended — view.full,
  // contiguous, already regression-positive. Nothing copied here.
  const std::span<const double> full = view.full;

  // Step 1: seasonality decomposition. When seasonality is present, work on
  // the trend alone; otherwise smooth with STL's trend extraction anyway
  // (period fallback) to suppress noise.
  const SeasonalityEstimate& season = seasonality.Estimate();
  const size_t period = season.present ? season.period : std::max<size_t>(4, full.size() / 20);
  const Decomposition& stl = seasonality.Stl(period);
  const std::span<const double> trend_span =
      stl.valid ? std::span<const double>(stl.trend) : full;

  // Step 2: regression detection on the trend.
  const size_t edge = std::max<size_t>(4, analysis_size / 8);
  const std::span<const double> analysis_trend = trend_span.subspan(hist_size, analysis_size);
  const std::span<const double> extended_trend =
      trend_span.subspan(hist_size + analysis_size);

  const double analysis_start_mean = Mean(analysis_trend.subspan(0, edge));
  const double historical_mean = Mean(trend_span.subspan(0, hist_size));
  const double baseline = std::max(analysis_start_mean, historical_mean);

  const double analysis_end_mean = Mean(analysis_trend.subspan(analysis_trend.size() - edge));
  double current = analysis_end_mean;
  if (!extended_trend.empty()) {
    current = std::min(analysis_end_mean, Mean(extended_trend));
  }

  const double delta = current - baseline;
  const double threshold = config_.threshold_mode == ThresholdMode::kAbsolute
                               ? config_.threshold
                               : config_.threshold * std::fabs(baseline);
  if (delta < threshold) {
    return std::nullopt;
  }

  // Step 3: change-point location within the analysis window's trend.
  size_t change_index = 0;
  {
    StageTimer timer(locate_ns);
    std::vector<double> normalized(analysis_trend.begin(), analysis_trend.end());
    const double lo = Min(normalized);
    const double hi = Max(normalized);
    if (hi > lo) {
      for (double& v : normalized) {
        v = (v - lo) / (hi - lo);
      }
    }
    const LinearFit fit = FitLine(normalized);
    if (!(fit.valid && fit.rmse < kLongTermRmseThreshold)) {
      // Not a clean ramp: DP search (normal loss) for the split.
      change_index = BestSingleSplit(analysis_trend, /*min_segment=*/edge);
    }
  }

  Regression regression;
  regression.metric = metric;
  regression.long_term = true;
  regression.detected_at = view.as_of;
  regression.change_index = change_index;
  regression.change_time = change_index < view.analysis_timestamps.size()
                               ? view.analysis_timestamps[change_index]
                               : view.analysis_begin;
  regression.extended_size = view.extended_size;
  regression.baseline_mean = baseline;
  regression.regressed_mean = current;
  regression.delta = delta;
  regression.relative_delta = baseline != 0.0 ? delta / std::fabs(baseline) : 0.0;
  regression.p_value = 0.0;  // Threshold-based decision; no test here.
  regression.historical.assign(trend_span.begin(),
                               trend_span.begin() + static_cast<long>(hist_size));
  regression.analysis.assign(trend_span.begin() + static_cast<long>(hist_size),
                             trend_span.end());
  regression.analysis_timestamps.assign(view.analysis_timestamps.begin(),
                                        view.analysis_timestamps.end());
  return regression;
}

}  // namespace fbdetect
