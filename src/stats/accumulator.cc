#include "src/stats/accumulator.h"

#include <algorithm>
#include <cmath>

namespace fbdetect {

void WelfordAccumulator::Add(double value) {
  if (!std::isfinite(value)) {
    // One NaN would poison mean/M2 (and min/max comparisons) forever; count
    // the sample as ignored instead so callers can see the dirt.
    ++ignored_non_finite_;
    return;
  }
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
}

void WelfordAccumulator::Merge(const WelfordAccumulator& other) {
  ignored_non_finite_ += other.ignored_non_finite_;
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    const int64_t ignored = ignored_non_finite_;
    *this = other;
    ignored_non_finite_ = ignored;
    return;
  }
  const double delta = other.mean_ - mean_;
  const int64_t total = count_ + other.count_;
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  m2_ += other.m2_ + delta * delta * na * nb / static_cast<double>(total);
  mean_ += delta * nb / static_cast<double>(total);
  count_ = total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double WelfordAccumulator::sample_variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double WelfordAccumulator::population_variance() const {
  if (count_ == 0) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_);
}

}  // namespace fbdetect
