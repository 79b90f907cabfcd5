// Helpers for tests that drive one scan or funnel stage directly, handing it
// its input in the form the pipeline does: Pipeline::ScanMetric orients a
// zero-copy window view, and RunAt fingerprints each survivor into a
// FunnelCandidate. Tests of the whole scan chain call Pipeline::ScanSeries
// instead.
#ifndef FBDETECT_TESTS_STAGE_HELPERS_H_
#define FBDETECT_TESTS_STAGE_HELPERS_H_

#include <utility>
#include <vector>

#include "src/common/sim_time.h"
#include "src/core/fingerprint.h"
#include "src/core/regression.h"
#include "src/core/scan_view.h"
#include "src/tsdb/metric_id.h"
#include "src/tsdb/timeseries.h"
#include "src/tsdb/window.h"

namespace fbdetect {

// The scan's oriented view of `series`' windows at `as_of`. It aliases
// `series` where higher is worse and negates into `scratch` otherwise, so
// both must outlive the view.
inline ScanView OrientedView(const TimeSeries& series, TimePoint as_of, const WindowSpec& spec,
                             MetricKind kind, std::vector<double>& scratch) {
  const double sign = LowerIsRegression(kind) ? -1.0 : 1.0;
  return OrientWindows(ExtractWindowView(series, as_of, spec), sign, scratch);
}

// Each regression bundled with its fingerprint, in order: the unit the
// funnel stages take.
inline std::vector<FunnelCandidate> Fingerprinted(std::vector<Regression> regressions) {
  std::vector<FunnelCandidate> candidates(regressions.size());
  for (size_t i = 0; i < regressions.size(); ++i) {
    candidates[i].fingerprint = ComputeFingerprint(regressions[i]);
    candidates[i].regression = std::move(regressions[i]);
  }
  return candidates;
}

}  // namespace fbdetect

#endif  // FBDETECT_TESTS_STAGE_HELPERS_H_
