#include "src/core/went_away_legacy.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "src/core/change_point_stage.h"
#include "src/core/went_away.h"
#include "src/stats/descriptive.h"
#include "src/stats/trend.h"
#include "src/tsa/cusum.h"

namespace fbdetect {

bool InverseCusumWentAway::Keep(const Regression& regression) const {
  const std::span<const double> analysis(regression.analysis);
  if (regression.change_index >= analysis.size()) {
    return false;
  }
  const std::span<const double> post = analysis.subspan(regression.change_index);
  if (post.size() < 2 * kMinSegment) {
    return true;  // Not enough post-change data to find an inverse shift.
  }
  // Search the post-change window for the most NEGATIVE mean shift — the
  // candidate "inverse regression".
  double most_negative = 0.0;
  for (size_t t = kMinSegment; t + kMinSegment <= post.size(); ++t) {
    const double shift = Mean(post.subspan(t)) - Mean(post.subspan(0, t));
    most_negative = std::min(most_negative, shift);
  }
  // A downward shift compensating most of the regression => "went away".
  // This is exactly the over-sensitive rule the paper retired: a transient
  // dip AFTER a true regression also triggers it, even though the level
  // recovers afterwards.
  return !(most_negative < -0.7 * regression.delta);
}

bool TrendCompareWentAway::Keep(const Regression& regression) const {
  const std::span<const double> analysis(regression.analysis);
  const std::span<const double> historical(regression.historical);
  if (regression.change_index >= analysis.size() || historical.empty()) {
    return false;
  }
  const std::span<const double> post = analysis.subspan(regression.change_index);
  const MannKendallResult trend = MannKendallTest(post, 0.05);
  if (trend.direction != TrendDirection::kDecreasing) {
    return true;  // No decay: the regression persists.
  }
  // Decreasing trend: compare the end of the regression against one
  // analysis-window-sized slice of the historical window. WHICH slice is the
  // fragile hyperparameter.
  const size_t slice = std::max<size_t>(1, analysis.size());
  const size_t max_offset = historical.size() / slice;
  const size_t offset = std::min(offset_, max_offset > 0 ? max_offset - 1 : 0);
  const size_t end = historical.size() - offset * slice;
  const size_t begin = end >= slice ? end - slice : 0;
  const std::span<const double> baseline = historical.subspan(begin, end - begin);

  const size_t tail = std::min(kGoneAwayTailPoints, post.size());
  const double tail_mean = Mean(post.subspan(post.size() - tail));
  const double baseline_high = Percentile(baseline, 90.0);
  // Recovered to within the baseline slice's range => "went away".
  return tail_mean > baseline_high;
}

}  // namespace fbdetect
