#include "src/core/change_point_stage.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "src/stats/descriptive.h"
#include "src/tsa/e_divisive.h"
#include "src/tsa/em_changepoint.h"

namespace fbdetect {
namespace {

// CUSUM+EM's defaults are §5.2.1's: segments of at least kMinSegment points,
// at most 20 EM iterations and a likelihood-ratio test at level 0.01.
static_assert(ChangePointConfig{}.min_segment == kMinSegment);

// The configured detector's strongest single split of `values`, in the
// §5.2.1 form: `index` is the first post-change element, `delta` the
// after-minus-before mean difference, and `found` only when the split is
// significant at level 0.01. Both detectors are deterministic (E-divisive's
// permutation test uses a fixed seed).
ChangePoint LocateChangePoint(std::span<const double> values, ChangePointDetector detector) {
  switch (detector) {
    case ChangePointDetector::kCusumEm:
      return DetectChangePoint(values);
    case ChangePointDetector::kEDivisive: {
      const EDivisiveResult split = EDivisiveSingleSplit(values);
      ChangePoint cp;
      if (!split.found || split.index == 0) {
        return cp;
      }
      cp.found = true;
      cp.index = split.index;
      cp.mean_before = Mean(values.subspan(0, split.index));
      cp.mean_after = Mean(values.subspan(split.index));
      cp.delta = cp.mean_after - cp.mean_before;
      cp.p_value = split.p_value;
      return cp;
    }
  }
  return ChangePoint{};
}

}  // namespace

std::optional<ScanCandidate> ChangePointStage::DetectCandidate(const ScanView& view) const {
  // Minimum data requirements: the statistics below need a meaningful
  // baseline and enough analysis points to host a split.
  const size_t min_analysis = std::max<size_t>(2 * kMinSegment, 8);
  if (view.analysis_size + view.extended_size < min_analysis ||
      view.historical_size < min_analysis) {
    return std::nullopt;
  }
  // Corrupt input (NaN/inf from a broken exporter) must not poison the
  // statistics; skip the series for this run.
  if (HasNonFinite(view.full)) {
    return std::nullopt;
  }

  // Context: a tail of the historical window equal to the analysis window, so
  // a step at the historical/analysis boundary is visible to the detector.
  // The view is contiguous, so the scan range is a subspan — no copy.
  const size_t context = std::min(view.historical_size, view.analysis_size);
  const std::span<const double> scan = view.full.subspan(view.historical_size - context);

  const ChangePoint cp = LocateChangePoint(scan, config_.change_point_detector);
  if (!cp.found) {
    return std::nullopt;
  }
  // The change must fall inside the analysis window proper (not the context
  // tail, not the extended window).
  if (cp.index < context || cp.index >= context + view.analysis_size) {
    return std::nullopt;
  }
  // Only regressions (increases in the oriented series) are reported.
  if (cp.delta <= 0.0) {
    return std::nullopt;
  }

  ScanCandidate candidate;
  candidate.change_index = cp.index - context;
  candidate.p_value = cp.p_value;
  // Baseline from the FULL historical window (oriented), not just the scan
  // context — the historical window is the comparison baseline (Fig. 4).
  candidate.baseline_mean = Mean(view.historical());
  candidate.regressed_mean =
      Mean(view.analysis_plus_extended().subspan(candidate.change_index));
  candidate.delta = candidate.regressed_mean - candidate.baseline_mean;
  candidate.relative_delta = candidate.baseline_mean != 0.0
                                 ? candidate.delta / std::abs(candidate.baseline_mean)
                                 : 0.0;
  if (candidate.delta <= 0.0) {
    // The split was significant locally but the level is not above the
    // historical baseline — not a regression against the baseline.
    return std::nullopt;
  }
  return candidate;
}

}  // namespace fbdetect
