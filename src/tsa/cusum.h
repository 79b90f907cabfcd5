// CUSUM-based change-point localization (§5.2.1).
//
// The cumulative-sum statistic S_t = Σ_{i<=t} (x_i - x̄) peaks (in absolute
// value) at the most likely mean-shift point. CusumLocate returns that point
// plus the before/after means; the iterative CUSUM+EM detector builds on it.
#ifndef FBDETECT_SRC_TSA_CUSUM_H_
#define FBDETECT_SRC_TSA_CUSUM_H_

#include <cstddef>
#include <span>
#include <vector>

namespace fbdetect {

struct CusumResult {
  bool found = false;
  size_t change_point = 0;  // Index of the first post-change element.
  double mean_before = 0.0;
  double mean_after = 0.0;
  double max_cusum = 0.0;  // |S| at the peak, a magnitude-times-duration score.
};

// Locates the single strongest mean-shift candidate. Requires at least
// `min_segment` points on each side (default 2); returns found=false when the
// series is too short or constant.
CusumResult CusumLocate(std::span<const double> values, size_t min_segment = 2);

// The raw CUSUM path S_1..S_n (useful for tests and visual harnesses).
std::vector<double> CusumPath(std::span<const double> values);

}  // namespace fbdetect

#endif  // FBDETECT_SRC_TSA_CUSUM_H_
