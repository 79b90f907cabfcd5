// Long-term regression detection (§5.3): STL decomposition first, then
// trend-level regression detection, then change-point location.
//
// Unlike the short-term path, seasonality removal runs FIRST (smoothing helps
// gradual-regression detection and the path is insensitive to sudden steps),
// and no went-away detector is used.
//
// Regression-detection step: baseline = max(mean at the start of the
// analysis window, mean of the historical window); current = min(mean at the
// end of the analysis window, mean of the extended window); report when
// current - baseline exceeds the threshold.
//
// Change-point step: if a linear fit of the normalized trend has low RMSE the
// change is a gradual ramp starting at the trend's beginning; otherwise the
// normal-loss dynamic-programming search locates the split.
#ifndef FBDETECT_SRC_CORE_LONG_TERM_H_
#define FBDETECT_SRC_CORE_LONG_TERM_H_

#include <optional>

#include "src/core/regression.h"
#include "src/core/scan_view.h"
#include "src/core/seasonality_stage.h"
#include "src/core/workload_config.h"
#include "src/observe/telemetry.h"
#include "src/tsdb/metric_id.h"

namespace fbdetect {

class LongTermDetector {
 public:
  explicit LongTermDetector(const DetectionConfig& config) : config_(config) {}

  // Consumes a pre-oriented ScanView (no window copies are made on the
  // non-detecting path; the returned Regression stores the STL trend). The
  // seasonality estimate and STL come from
  // `seasonality`, the window's holder over view.full, which the seasonality
  // stage may already have filled. `locate_ns` (null: no clock) times the
  // change-point location step of each window that passes the threshold.
  std::optional<Regression> Detect(const MetricId& metric, const ScanView& view,
                                   WindowSeasonality& seasonality,
                                   Histogram* locate_ns = nullptr) const;

 private:
  const DetectionConfig& config_;
};

}  // namespace fbdetect

#endif  // FBDETECT_SRC_CORE_LONG_TERM_H_
