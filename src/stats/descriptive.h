// Descriptive statistics over contiguous spans of doubles.
//
// All functions take std::span so they work on raw vectors and on slices of
// time series without copies. Percentile uses linear interpolation between
// order statistics (the "linear" / type-7 method used by NumPy), which is
// what the paper's percentile tables assume.
#ifndef FBDETECT_SRC_STATS_DESCRIPTIVE_H_
#define FBDETECT_SRC_STATS_DESCRIPTIVE_H_

#include <span>
#include <vector>

namespace fbdetect {

// Arithmetic mean; 0.0 for an empty span.
double Mean(std::span<const double> values);

// Unbiased sample variance (n-1 denominator); 0.0 if fewer than 2 values.
double SampleVariance(std::span<const double> values);

// Sample standard deviation.
double SampleStdDev(std::span<const double> values);

// Median (copies and partially sorts); 0.0 for an empty span.
double Median(std::span<const double> values);

// Percentile p in [0, 100] with linear interpolation over the FINITE
// samples (NaN would make the selection undefined); 0.0 for an empty span or
// when no finite samples remain. Copies the finite samples and selects the
// two order statistics it interpolates between, O(n) on average.
double Percentile(std::span<const double> values, double p);

// Median Absolute Deviation. When `normalized` is true the result is scaled
// by 1.4826 so it estimates the standard deviation under normality (§5.2.2's
// "normality constant").
double MedianAbsoluteDeviation(std::span<const double> values, bool normalized);

// Minimum / maximum; 0.0 for an empty span.
double Min(std::span<const double> values);
double Max(std::span<const double> values);

// Sum of the values.
double Sum(std::span<const double> values);

// Returns true if any value is NaN or infinite.
bool HasNonFinite(std::span<const double> values);

}  // namespace fbdetect

#endif  // FBDETECT_SRC_STATS_DESCRIPTIVE_H_
