#include "src/tsa/cusum.h"

#include <cmath>

#include "src/stats/descriptive.h"

namespace fbdetect {

std::vector<double> CusumPath(std::span<const double> values) {
  std::vector<double> path(values.size(), 0.0);
  if (values.empty()) {
    return path;
  }
  const double mean = Mean(values);
  double running = 0.0;
  for (size_t i = 0; i < values.size(); ++i) {
    running += values[i] - mean;
    path[i] = running;
  }
  return path;
}

CusumResult CusumLocate(std::span<const double> values, size_t min_segment) {
  CusumResult result;
  const size_t n = values.size();
  if (min_segment < 1) {
    min_segment = 1;
  }
  if (n < 2 * min_segment) {
    return result;
  }
  const std::vector<double> path = CusumPath(values);
  double best = 0.0;
  size_t best_index = 0;
  // A change at index t (first post-change point) corresponds to the CUSUM
  // peak at t-1; scan the allowed split range.
  for (size_t t = min_segment; t + min_segment <= n; ++t) {
    const double magnitude = std::fabs(path[t - 1]);
    if (magnitude > best) {
      best = magnitude;
      best_index = t;
    }
  }
  if (best_index == 0 || best <= 0.0) {
    return result;
  }
  result.found = true;
  result.change_point = best_index;
  result.max_cusum = best;
  result.mean_before = Mean(values.subspan(0, best_index));
  result.mean_after = Mean(values.subspan(best_index));
  return result;
}

}  // namespace fbdetect
