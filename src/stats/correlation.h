// Correlation measures: Pearson's r (PairwiseDedup and root-cause time-series
// correlation, §5.5.2/§5.6) and the autocorrelation function used by the
// seasonality detector (§5.2.3) to decide whether STL should run at all.
//
// The full ACF is the seasonality detector's dominant cost (it scans lags up
// to n/2 on every candidate), so AutocorrelationFunction computes it in
// O(n log n) via the Wiener–Khinchin theorem once the series is large enough
// to justify the FFT; the direct O(n * max_lag) implementation is kept as
// the reference and cross-checked in tests.
#ifndef FBDETECT_SRC_STATS_CORRELATION_H_
#define FBDETECT_SRC_STATS_CORRELATION_H_

#include <span>
#include <vector>

namespace fbdetect {

// Pearson correlation coefficient of two equal-length spans; 0.0 when either
// side is constant or shorter than 2.
double PearsonCorrelation(std::span<const double> x, std::span<const double> y);

// Autocorrelation for lags 1..max_lag (clamped to n-1). Uses the FFT-based
// O(n log n) path for large inputs and the direct path for small ones; both
// agree to ~1e-12 (tested at 1e-9).
std::vector<double> AutocorrelationFunction(std::span<const double> values, size_t max_lag);

// Direct O(n * max_lag) reference implementation (mean and denominator
// hoisted out of the per-lag loop).
std::vector<double> AutocorrelationFunctionBruteForce(std::span<const double> values,
                                                      size_t max_lag);

struct SeasonalityEstimate {
  bool present = false;
  size_t period = 0;        // Lag of the strongest significant ACF peak.
  double correlation = 0.0;  // ACF value at that lag.
};

// Scans the ACF for the strongest local peak whose correlation exceeds both
// `min_correlation` and the ~2/sqrt(n) white-noise significance band.
// `min_period` skips trivially short lags.
SeasonalityEstimate DetectSeasonality(std::span<const double> values, size_t min_period,
                                      size_t max_period, double min_correlation);

}  // namespace fbdetect

#endif  // FBDETECT_SRC_STATS_CORRELATION_H_
