// Stage 1 of the short-term path (Fig. 6): change-point detection.
//
// For one metric's windows, runs the configured change-point detector
// (default: the iterative CUSUM+EM detector, §5.2.1; alternative: E-divisive)
// over the recent data (a one-analysis-window tail of the historical window
// for context, plus the analysis and extended windows), validates the
// candidate with the detector's significance test, and — when the change
// point falls inside the analysis window — emits a candidate.
//
// DetectCandidate consumes a pre-oriented ScanView and emits only scalars;
// window data is copied into a Regression (MaterializeRegression) only for
// candidates that survive the downstream filters. It is the stage's one
// entry: benches and tests that want the verdict of the whole chain call
// Pipeline::ScanSeries.
#ifndef FBDETECT_SRC_CORE_CHANGE_POINT_STAGE_H_
#define FBDETECT_SRC_CORE_CHANGE_POINT_STAGE_H_

#include <optional>

#include "src/core/scan_view.h"
#include "src/core/workload_config.h"

namespace fbdetect {

// Minimum points per change-point segment (§5.2.1). Also the segment floor of
// the first went-away iteration (went_away_legacy.h).
inline constexpr size_t kMinSegment = 4;

class ChangePointStage {
 public:
  // Keeps a reference to `config`, which must outlive the stage. Stateless
  // otherwise: DetectCandidate is const and thread-safe, so one instance
  // serves every scan worker (the determinism contract).
  explicit ChangePointStage(const DetectionConfig& config) : config_(config) {}

  // Returns candidate scalars, or nullopt when no significant change point
  // lies in the analysis window. `view` must be oriented
  // (regression-positive) and built with the same config's WindowSpec.
  std::optional<ScanCandidate> DetectCandidate(const ScanView& view) const;

 private:
  const DetectionConfig& config_;
};

}  // namespace fbdetect

#endif  // FBDETECT_SRC_CORE_CHANGE_POINT_STAGE_H_
