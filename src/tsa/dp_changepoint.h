// Dynamic-programming change-point search with the normal (L2) loss, per
// Truong et al.'s "Selective Review of Offline Change Point Detection
// Methods" [72], used by the long-term detector (§5.3) when the trend is not
// a clean linear ramp. Finds the segmentation into k+1 segments minimizing
// the total within-segment variance; the single-change variant ("the
// partition point that minimizes the variance on both sides") is k=1.
#ifndef FBDETECT_SRC_TSA_DP_CHANGEPOINT_H_
#define FBDETECT_SRC_TSA_DP_CHANGEPOINT_H_

#include <cstddef>
#include <span>
#include <vector>

namespace fbdetect {

struct Segmentation {
  // Indices of the first element of each post-change segment, ascending.
  std::vector<size_t> change_points;
  double total_cost = 0.0;  // Sum of within-segment squared deviations.
  bool valid = false;
};

// Optimal segmentation with exactly `num_changes` change points, each segment
// at least `min_segment` long. O(num_changes * n^2) time, O(num_changes * n)
// space. Returns valid=false when the series cannot host that many segments.
Segmentation DpSegment(std::span<const double> values, size_t num_changes,
                       size_t min_segment = 2);

// Convenience: the variance-minimizing single split (k=1). Returns the index
// of the first post-change element, or 0 when no valid split exists.
size_t BestSingleSplit(std::span<const double> values, size_t min_segment = 2);

}  // namespace fbdetect

#endif  // FBDETECT_SRC_TSA_DP_CHANGEPOINT_H_
