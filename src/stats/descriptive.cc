#include "src/stats/descriptive.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace fbdetect {

double Mean(std::span<const double> values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

double SampleVariance(std::span<const double> values) {
  if (values.size() < 2) {
    return 0.0;
  }
  const double mean = Mean(values);
  double sum_sq = 0.0;
  for (double v : values) {
    const double d = v - mean;
    sum_sq += d * d;
  }
  return sum_sq / static_cast<double>(values.size() - 1);
}

double SampleStdDev(std::span<const double> values) { return std::sqrt(SampleVariance(values)); }

double Median(std::span<const double> values) { return Percentile(values, 50.0); }

double Percentile(std::span<const double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  FBD_CHECK(p >= 0.0 && p <= 100.0);
  // NaN breaks std::sort's strict weak ordering (UB); the percentile is
  // defined over the finite samples only, 0.0 when none remain.
  std::vector<double> sorted;
  sorted.reserve(values.size());
  for (const double v : values) {
    if (std::isfinite(v)) {
      sorted.push_back(v);
    }
  }
  if (sorted.empty()) {
    return 0.0;
  }
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) {
    return sorted[0];
  }
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double MedianAbsoluteDeviation(std::span<const double> values, bool normalized) {
  if (values.empty()) {
    return 0.0;
  }
  const double med = Median(values);
  std::vector<double> deviations;
  deviations.reserve(values.size());
  for (double v : values) {
    deviations.push_back(std::fabs(v - med));
  }
  const double mad = Median(deviations);
  // 1.4826 makes the MAD a consistent estimator of sigma for normal data.
  return normalized ? mad * 1.4826 : mad;
}

double Min(std::span<const double> values) {
  if (values.empty()) {
    return 0.0;
  }
  return *std::min_element(values.begin(), values.end());
}

double Max(std::span<const double> values) {
  if (values.empty()) {
    return 0.0;
  }
  return *std::max_element(values.begin(), values.end());
}

double Sum(std::span<const double> values) {
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  return sum;
}

bool HasNonFinite(std::span<const double> values) {
  for (double v : values) {
    if (!std::isfinite(v)) {
      return true;
    }
  }
  return false;
}

}  // namespace fbdetect
