// Stage 2 of the short-term path: the went-away detector (§5.2.2), the
// technique that filters 99.7% of raw change points in production.
//
// A candidate regression is kept only if the predicate
//   NewPattern OR [SignificantRegression AND LastingTrend AND
//                  (NOT RegressionGoneAway)]
// holds, where all four terms are computed over the SAX discretization of
// the windows (N=20 buckets, 3% validity) and robust trend statistics:
//
//  * NewPattern — the post-regression SAX string is mostly made of letters
//    that are invalid in the historical window (a pattern never seen
//    before), unless its level is below the lowest valid historical bucket
//    (new pattern but no cost increase).
//  * SignificantRegression — the largest post-regression letter reaches the
//    largest valid historical letter, and P90(post) exceeds both
//    P95(historical) and P90(previous day).
//  * LastingTrend — Mann–Kendall on the post-regression window and on the
//    whole analysis window; if an upward trend exists, its Theil–Sen slope
//    (the smaller of the two windows' slopes, to avoid over/under-
//    estimation) must project to at least coefficient × MAD × 1.4826 over
//    the post window. A step regression with a stable elevated level (no
//    trend either way) also counts as lasting.
//  * RegressionGoneAway — the last few data points have recovered to near
//    the baseline (final sanity check).
#ifndef FBDETECT_SRC_CORE_WENT_AWAY_H_
#define FBDETECT_SRC_CORE_WENT_AWAY_H_

#include <cstddef>

#include "src/core/scan_view.h"

namespace fbdetect {

// RegressionGoneAway's "last few data points" (§5.2.2). Also the recovery
// tail of the second went-away iteration (went_away_legacy.h).
inline constexpr size_t kGoneAwayTailPoints = 5;

struct WentAwayVerdict {
  bool keep = false;  // True = real regression; false = transient, filter out.
  // Term values, exposed for tests and the Fig. 7 bench.
  bool new_pattern = false;
  bool significant = false;
  bool lasting_trend = false;
  bool gone_away = false;
};

class WentAwayDetector {
 public:
  // Evaluates `candidate` against the oriented windows of `view` (the SAX
  // range reference is view.full — historical + analysis + extended — with
  // no materialization). A points-per-day hint (from the
  // metric's resolution) lets the previous-day percentile term pick the
  // right slice; pass 0 when unknown to fall back to the last quarter of the
  // historical window.
  WentAwayVerdict Evaluate(const ScanView& view, const ScanCandidate& candidate,
                           size_t points_per_day) const;
};

}  // namespace fbdetect

#endif  // FBDETECT_SRC_CORE_WENT_AWAY_H_
