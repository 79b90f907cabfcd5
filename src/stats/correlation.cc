#include "src/stats/correlation.h"

#include <algorithm>
#include <cmath>

#include "src/stats/descriptive.h"
#include "src/stats/fourier.h"

namespace fbdetect {

namespace {

// Below this size the direct ACF beats the FFT's constant factor (complex
// buffers, two transforms over >= 2n padded points).
constexpr size_t kFftAcfMinSize = 64;

// Pearson's sums and centered moments accumulate into 4 lanes (element i
// goes to lane i % 4), combined as (l0 + l1) + (l2 + l3). This order fixes
// the bits of every Pearson r, and so of pairwise-dedup and root-cause
// decisions: a serial sum rounds differently and would change reports.
void SumPair(const double* x, const double* y, size_t n, double* sum_x, double* sum_y) {
  double ax[4] = {0.0, 0.0, 0.0, 0.0};
  double ay[4] = {0.0, 0.0, 0.0, 0.0};
  for (size_t i = 0; i < n; ++i) {
    ax[i % 4] += x[i];
    ay[i % 4] += y[i];
  }
  *sum_x = (ax[0] + ax[1]) + (ax[2] + ax[3]);
  *sum_y = (ay[0] + ay[1]) + (ay[2] + ay[3]);
}

// sxy = sum (x-mx)(y-my), sxx = sum (x-mx)^2, syy = sum (y-my)^2, striped
// like SumPair.
void CenteredMoments(const double* x, const double* y, size_t n, double mean_x,
                     double mean_y, double* sxy, double* sxx, double* syy) {
  double axy[4] = {0.0, 0.0, 0.0, 0.0};
  double axx[4] = {0.0, 0.0, 0.0, 0.0};
  double ayy[4] = {0.0, 0.0, 0.0, 0.0};
  for (size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mean_x;
    const double dy = y[i] - mean_y;
    const size_t lane = i % 4;
    axy[lane] += dx * dy;
    axx[lane] += dx * dx;
    ayy[lane] += dy * dy;
  }
  *sxy = (axy[0] + axy[1]) + (axy[2] + axy[3]);
  *sxx = (axx[0] + axx[1]) + (axx[2] + axx[3]);
  *syy = (ayy[0] + ayy[1]) + (ayy[2] + ayy[3]);
}

}  // namespace

double PearsonCorrelation(std::span<const double> x, std::span<const double> y) {
  const size_t n = std::min(x.size(), y.size());
  if (n < 2) {
    return 0.0;
  }
  // AlignedPearson routes through here too, which keeps the pairwise-dedup
  // fast path bit-exact with its materialize-then-correlate oracle.
  double sum_x = 0.0;
  double sum_y = 0.0;
  SumPair(x.data(), y.data(), n, &sum_x, &sum_y);
  const double mean_x = sum_x / static_cast<double>(n);
  const double mean_y = sum_y / static_cast<double>(n);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  CenteredMoments(x.data(), y.data(), n, mean_x, mean_y, &sxy, &sxx, &syy);
  if (sxx <= 0.0 || syy <= 0.0) {
    return 0.0;
  }
  const double r = sxy / std::sqrt(sxx * syy);
  // NaN/Inf inputs poison the sums (and `sxx <= 0.0` is false for NaN);
  // report "no correlation" instead of propagating the poison.
  return std::isfinite(r) ? r : 0.0;
}

std::vector<double> AutocorrelationFunctionBruteForce(std::span<const double> values,
                                                      size_t max_lag) {
  const size_t n = values.size();
  const size_t limit = n == 0 ? 0 : std::min(max_lag, n - 1);
  std::vector<double> acf(limit, 0.0);
  if (limit == 0) {
    return acf;
  }
  // Mean and denominator are lag-independent; computing them once instead of
  // per lag halves the direct path's work.
  const double mean = Mean(values);
  double denom = 0.0;
  for (double v : values) {
    const double d = v - mean;
    denom += d * d;
  }
  if (denom <= 0.0) {
    return acf;  // Constant series: all zeros.
  }
  for (size_t lag = 1; lag <= limit; ++lag) {
    double num = 0.0;
    for (size_t i = 0; i + lag < n; ++i) {
      num += (values[i] - mean) * (values[i + lag] - mean);
    }
    acf[lag - 1] = num / denom;
  }
  return acf;
}

std::vector<double> AutocorrelationFunction(std::span<const double> values, size_t max_lag) {
  const size_t n = values.size();
  if (n < kFftAcfMinSize) {
    return AutocorrelationFunctionBruteForce(values, max_lag);
  }
  const size_t limit = std::min(max_lag, n - 1);
  std::vector<double> acf(limit, 0.0);
  if (limit == 0) {
    return acf;
  }
  // Wiener–Khinchin: FFT -> power spectrum -> inverse FFT yields every
  // lagged product sum in one O(n log n) pass; sums[0] is the denominator.
  const std::vector<double> sums = AutocovarianceSumsFft(values, limit);
  const double denom = sums[0];
  if (denom <= 0.0) {
    return acf;  // Constant series.
  }
  for (size_t lag = 1; lag <= limit; ++lag) {
    acf[lag - 1] = sums[lag] / denom;
  }
  return acf;
}

SeasonalityEstimate DetectSeasonality(std::span<const double> values, size_t min_period,
                                      size_t max_period, double min_correlation) {
  SeasonalityEstimate estimate;
  const size_t n = values.size();
  if (n < 8 || min_period < 2) {
    return estimate;
  }
  const size_t cap = std::min(max_period, n / 2);
  if (cap < min_period) {
    return estimate;
  }
  const std::vector<double> acf = AutocorrelationFunction(values, cap);
  // White-noise band: |r| > 2/sqrt(n) is significant at ~95%.
  const double noise_band = 2.0 / std::sqrt(static_cast<double>(n));
  double best = 0.0;
  size_t best_lag = 0;
  for (size_t lag = min_period; lag <= cap; ++lag) {
    const double r = acf[lag - 1];
    // Require a local peak so harmonics of short-lag noise do not win.
    const double prev = lag >= 2 ? acf[lag - 2] : r;
    const double next = lag < cap ? acf[lag] : r;
    if (r >= prev && r >= next && r > best) {
      best = r;
      best_lag = lag;
    }
  }
  if (best_lag != 0 && best > std::max(min_correlation, noise_band)) {
    estimate.present = true;
    estimate.period = best_lag;
    estimate.correlation = best;
  }
  return estimate;
}

}  // namespace fbdetect
