// The went-away detector's first two production iterations (§5.2.2),
// kept as comparable baselines for the ablation bench:
//
//  Iteration 1 — inverse-CUSUM: after the detected change point, run CUSUM
//    again on the post-change data looking for an inverse shift whose
//    magnitude compensates the original regression. Weakness (per the
//    paper): a temporary dip right after a TRUE regression looks like a
//    compensating inverse shift, so true regressions get filtered.
//
//  Iteration 2 — trend + historical compare: Mann–Kendall on the
//    post-change window; a significant decreasing trend plus recovery to
//    the level of a sampled historical window means "went away". Weakness:
//    if the sampled historical window happens to contain a spike, the
//    still-regressed level compares as "recovered" and a true regression is
//    filtered (the Fig. 7 failure).
//
// The current (third) iteration lives in went_away.h.
#ifndef FBDETECT_SRC_CORE_WENT_AWAY_LEGACY_H_
#define FBDETECT_SRC_CORE_WENT_AWAY_LEGACY_H_

#include <cstddef>

#include "src/core/regression.h"

namespace fbdetect {

// Iteration 1. Returns true when the regression should be KEPT.
class InverseCusumWentAway {
 public:
  bool Keep(const Regression& regression) const;
};

// Iteration 2. `historical_window_offset` selects which slice of the
// historical window serves as the recovery baseline (the paper's point is
// precisely that this choice is fragile): 0 = the latest slice, 1 = one
// analysis-window earlier, etc.
class TrendCompareWentAway {
 public:
  explicit TrendCompareWentAway(size_t historical_window_offset)
      : offset_(historical_window_offset) {}

  bool Keep(const Regression& regression) const;

 private:
  size_t offset_;
};

}  // namespace fbdetect

#endif  // FBDETECT_SRC_CORE_WENT_AWAY_LEGACY_H_
