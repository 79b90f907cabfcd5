#include "src/stats/descriptive.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

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
  // NaN breaks the strict weak ordering selection needs (UB); the
  // percentile is defined over the finite samples only, 0.0 when none
  // remain.
  std::vector<double> finite;
  finite.reserve(values.size());
  for (const double v : values) {
    if (std::isfinite(v)) {
      finite.push_back(v);
    }
  }
  if (finite.empty()) {
    return 0.0;
  }
  if (finite.size() == 1) {
    return finite[0];
  }
  const double rank = p / 100.0 * static_cast<double>(finite.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, finite.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  // Only the order statistics at lo and hi are needed: select lo, and the
  // next one up is the smallest element after it. Both equal the sorted
  // copy's elements at lo and hi (up to the sign of a zero, which sorting
  // does not fix either).
  const auto lo_it = finite.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(finite.begin(), lo_it, finite.end());
  const double lo_value = *lo_it;
  const double hi_value = hi == lo ? lo_value : *std::min_element(lo_it + 1, finite.end());
  return lo_value + frac * (hi_value - lo_value);
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
