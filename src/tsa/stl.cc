#include "src/tsa/stl.h"

#include <algorithm>
#include <utility>

#include "src/tsa/loess.h"

namespace fbdetect {
namespace {

constexpr int kInnerIterations = 2;
constexpr size_t kSeasonalSpan = 7;  // Loess span for cycle-subseries smoothing.

// Next odd number >= x.
size_t NextOdd(size_t x) { return x % 2 == 0 ? x + 1 : x; }

// Centered moving average of width `width` (handles even widths with the
// standard 2x(MA) trick by averaging two offset windows).
std::vector<double> CenteredMovingAverage(std::span<const double> values, size_t width) {
  const size_t n = values.size();
  std::vector<double> out(n, 0.0);
  if (width == 0 || n == 0) {
    return out;
  }
  // Window sums via a prefix-sum table: O(n) total instead of O(n * width).
  std::vector<double> prefix(n + 1, 0.0);
  for (size_t i = 0; i < n; ++i) {
    prefix[i + 1] = prefix[i] + values[i];
  }
  for (size_t i = 0; i < n; ++i) {
    const size_t half = width / 2;
    size_t lo = i >= half ? i - half : 0;
    size_t hi = std::min(n, i + half + 1);
    if (width % 2 == 0) {
      hi = std::min(n, i + half);  // Symmetric even window.
      if (hi <= lo) {
        hi = lo + 1;
      }
    }
    out[i] = (prefix[hi] - prefix[lo]) / static_cast<double>(hi - lo);
  }
  return out;
}

}  // namespace

std::vector<double> Decomposition::Deseasonalized() const {
  std::vector<double> out(trend.size());
  for (size_t i = 0; i < trend.size(); ++i) {
    out[i] = trend[i] + residual[i];
  }
  return out;
}

Decomposition StlDecompose(std::span<const double> values, size_t period) {
  Decomposition result;
  const size_t n = values.size();
  result.seasonal.assign(n, 0.0);
  result.trend.assign(values.begin(), values.end());
  result.residual.assign(n, 0.0);
  if (period < 2 || n < 2 * period) {
    return result;  // valid=false; everything stays in trend.
  }

  const size_t trend_span = NextOdd(period + period / 2);
  const size_t lowpass_span = NextOdd(period);

  // Every buffer is allocated once per decomposition and reused by both
  // passes and every phase; each pass overwrites what it reads.
  std::vector<double> seasonal(n, 0.0);
  std::vector<double> trend(n, 0.0);
  std::vector<double> work(n);  // Detrended, then deseasonalized.
  std::vector<double> cycle(n);
  std::vector<double> lowpass(n);
  const size_t max_cycles = (n + period - 1) / period;
  std::vector<double> subseries(max_cycles);
  std::vector<double> smoothed(max_cycles);
  LoessScratch scratch;
  for (int inner = 0; inner < kInnerIterations; ++inner) {
    // Step 1: detrend.
    for (size_t i = 0; i < n; ++i) {
      work[i] = values[i] - trend[i];
    }
    // Step 2: cycle-subseries smoothing. Each phase (i mod period) is
    // smoothed independently with loess, producing the raw seasonal.
    for (size_t phase = 0; phase < period; ++phase) {
      size_t count = 0;
      for (size_t i = phase; i < n; i += period) {
        subseries[count++] = work[i];
      }
      LoessSmoothInto(std::span<const double>(subseries).first(count), kSeasonalSpan,
                      std::span<double>(smoothed).first(count), scratch);
      for (size_t k = 0, i = phase; k < count; ++k, i += period) {
        cycle[i] = smoothed[k];
      }
    }
    // Step 3: low-pass filter of the cycle-subseries (moving average of
    // width `period`, then loess) to extract leftover trend in it.
    LoessSmoothInto(CenteredMovingAverage(cycle, period), lowpass_span, lowpass, scratch);
    // Step 4: seasonal = cycle - lowpass (centers the seasonal around 0).
    for (size_t i = 0; i < n; ++i) {
      seasonal[i] = cycle[i] - lowpass[i];
    }
    // Step 5: deseasonalize and smooth for the new trend.
    for (size_t i = 0; i < n; ++i) {
      work[i] = values[i] - seasonal[i];
    }
    LoessSmoothInto(work, trend_span, trend, scratch);
  }

  result.seasonal = std::move(seasonal);
  result.trend = std::move(trend);
  for (size_t i = 0; i < n; ++i) {
    result.residual[i] = values[i] - result.seasonal[i] - result.trend[i];
  }
  result.valid = true;
  return result;
}

Decomposition MovingAverageDecompose(std::span<const double> values, size_t period) {
  Decomposition result;
  const size_t n = values.size();
  result.seasonal.assign(n, 0.0);
  result.trend.assign(values.begin(), values.end());
  result.residual.assign(n, 0.0);
  if (period < 2 || n < 2 * period) {
    return result;
  }
  result.trend = CenteredMovingAverage(values, period);
  // Per-phase means of the detrended series.
  std::vector<double> phase_sum(period, 0.0);
  std::vector<size_t> phase_count(period, 0);
  for (size_t i = 0; i < n; ++i) {
    phase_sum[i % period] += values[i] - result.trend[i];
    ++phase_count[i % period];
  }
  double grand_mean = 0.0;
  for (size_t p = 0; p < period; ++p) {
    phase_sum[p] /= std::max<size_t>(1, phase_count[p]);
    grand_mean += phase_sum[p];
  }
  grand_mean /= static_cast<double>(period);
  for (size_t i = 0; i < n; ++i) {
    result.seasonal[i] = phase_sum[i % period] - grand_mean;
    result.residual[i] = values[i] - result.trend[i] - result.seasonal[i];
  }
  result.valid = true;
  return result;
}

}  // namespace fbdetect
