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
// in src/stats/correlation.h, so this stage is cheap even for long windows.
#ifndef FBDETECT_SRC_CORE_SEASONALITY_STAGE_H_
#define FBDETECT_SRC_CORE_SEASONALITY_STAGE_H_

#include <cstddef>

#include "src/core/regression.h"
#include "src/core/scan_view.h"

namespace fbdetect {

// Minimum autocorrelation at the detected period for seasonality to count as
// present (§5.2.3). The long-term detector (§5.3) uses the same bar.
inline constexpr double kSeasonalityMinCorrelation = 0.30;

struct SeasonalityVerdict {
  bool seasonal_filtered = false;  // True = drop the regression.
  bool seasonality_present = false;
  size_t period = 0;
  double analysis_zscore = 0.0;
  double extended_zscore = 0.0;
};

class SeasonalityStage {
 public:
  // Zero-copy core: seasonality is estimated over view.full (historical +
  // analysis + extended, contiguous and oriented) with no concatenation.
  SeasonalityVerdict Evaluate(const ScanView& view, const ScanCandidate& candidate) const;

  // Convenience: re-evaluates a stored Regression.
  SeasonalityVerdict Evaluate(const Regression& regression) const;
};

}  // namespace fbdetect

#endif  // FBDETECT_SRC_CORE_SEASONALITY_STAGE_H_
