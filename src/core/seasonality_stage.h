// Stage 3 of the short-term path: the seasonality detector (§5.2.3).
//
// Checks the autocorrelation function for significant seasonality; when
// present, decomposes the series with STL, removes the seasonal component,
// and recomputes the regression's effect on trend+residual as a pseudo
// z-score (median shift normalized by residual stddev). The regression is
// filtered as seasonal when the z-score stays below the threshold in BOTH
// the analysis window and the extended window.
//
// The ACF underneath DetectSeasonality runs in O(n log n) via the FFT path
// in src/stats/correlation.h. The long-term detector (§5.3) estimates the
// same seasonality and runs the same STL over the same window, so the scan
// computes both once per window in a WindowSeasonality both stages read.
#ifndef FBDETECT_SRC_CORE_SEASONALITY_STAGE_H_
#define FBDETECT_SRC_CORE_SEASONALITY_STAGE_H_

#include <cstddef>
#include <optional>
#include <span>

#include "src/core/scan_view.h"
#include "src/observe/telemetry.h"
#include "src/stats/correlation.h"
#include "src/tsa/stl.h"

namespace fbdetect {

// Minimum autocorrelation at the detected period for seasonality to count as
// present (§5.2.3). The long-term detector (§5.3) uses the same bar.
inline constexpr double kSeasonalityMinCorrelation = 0.30;

// One scanned window's seasonality estimate and STL decomposition, for the
// seasonality stage and the long-term detector, which ask for the same ones.
// Each is computed the first time a stage asks for it, so it runs (and is
// timed) inside that stage's StageTimer, and is recorded once in its
// substage histogram. A holder lives for one window's scan and keeps
// nothing for another.
class WindowSeasonality {
 public:
  // `full` must outlive the holder. Null histograms read no clock.
  explicit WindowSeasonality(std::span<const double> full, Histogram* estimate_ns = nullptr,
                             Histogram* stl_ns = nullptr)
      : full_(full), estimate_ns_(estimate_ns), stl_ns_(stl_ns) {}

  // DetectSeasonality over the whole window, periods 4 to n/3.
  const SeasonalityEstimate& Estimate();

  // StlDecompose of the whole window at `period`; every call on one holder
  // must ask for the same period (FBD_CHECKed).
  const Decomposition& Stl(size_t period);

 private:
  std::span<const double> full_;
  Histogram* estimate_ns_;
  Histogram* stl_ns_;
  std::optional<SeasonalityEstimate> estimate_;
  std::optional<Decomposition> stl_;
  size_t stl_period_ = 0;
};

struct SeasonalityVerdict {
  bool seasonal_filtered = false;  // True = drop the regression.
  bool seasonality_present = false;
  size_t period = 0;
  double analysis_zscore = 0.0;
  double extended_zscore = 0.0;
};

class SeasonalityStage {
 public:
  // Seasonality is estimated over view.full (historical + analysis +
  // extended, contiguous and oriented) with no concatenation, through
  // `seasonality`, the window's shared holder over view.full.
  SeasonalityVerdict Evaluate(const ScanView& view, const ScanCandidate& candidate,
                              WindowSeasonality& seasonality) const;
};

}  // namespace fbdetect

#endif  // FBDETECT_SRC_CORE_SEASONALITY_STAGE_H_
