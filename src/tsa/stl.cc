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

// Smooths the cycle-subseries of phases [first, end), which all have
// plan.size() points, into `cycle`: lanes across phases, plan.lanes() phases
// per pass, each lane running the one-series fit on its own phase. Phases
// are stored period apart, so lane l's point j is work[phase + l +
// j * period]. The fewer than plan.lanes() phases left over are gathered
// into `subseries` one at a time and smoothed alone (Apply); both forms
// return the same bits.
void SmoothCycleSubseries(const LoessPlan& plan, std::span<const double> work, size_t period,
                          size_t first, size_t end, std::span<double> cycle,
                          std::vector<double>& subseries, std::vector<double>& smoothed) {
  size_t phase = first;
  for (; phase + plan.lanes() <= end; phase += plan.lanes()) {
    plan.ApplyAcross(work.data() + phase, period, cycle.data() + phase);
  }
  const size_t count = plan.size();
  for (; phase < end; ++phase) {
    for (size_t j = 0; j < count; ++j) {
      subseries[j] = work[phase + j * period];
    }
    plan.Apply(std::span<const double>(subseries).first(count),
               std::span<double>(smoothed).first(count));
    for (size_t j = 0; j < count; ++j) {
      cycle[phase + j * period] = smoothed[j];
    }
  }
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

  // Every loess shape is planned once per decomposition and applied in both
  // passes: the trend and low-pass spans over n points, and span 7 over the
  // cycle-subseries, which have n / period points, or one more for the first
  // n % period phases. Nothing carries from one decomposition to the next.
  const LoessPlan trend_plan(n, trend_span);
  const LoessPlan lowpass_plan(n, lowpass_span);
  const size_t long_phases = n % period;
  const LoessPlan long_plan(n / period + 1, kSeasonalSpan);
  const LoessPlan short_plan(n / period, kSeasonalSpan);

  // Every buffer is allocated once per decomposition and reused by both
  // passes and every phase; each pass overwrites what it reads.
  std::vector<double> seasonal(n, 0.0);
  std::vector<double> trend(n, 0.0);
  std::vector<double> work(n);  // Detrended, then deseasonalized.
  std::vector<double> cycle(n);
  std::vector<double> lowpass(n);
  std::vector<double> subseries(n / period + 1);
  std::vector<double> smoothed(n / period + 1);
  for (int inner = 0; inner < kInnerIterations; ++inner) {
    // Step 1: detrend.
    for (size_t i = 0; i < n; ++i) {
      work[i] = values[i] - trend[i];
    }
    // Step 2: cycle-subseries smoothing. Each phase (i mod period) is
    // smoothed independently with loess, producing the raw seasonal.
    SmoothCycleSubseries(long_plan, work, period, 0, long_phases, cycle, subseries, smoothed);
    SmoothCycleSubseries(short_plan, work, period, long_phases, period, cycle, subseries,
                         smoothed);
    // Step 3: low-pass filter of the cycle-subseries (moving average of
    // width `period`, then loess) to extract leftover trend in it.
    lowpass_plan.Apply(CenteredMovingAverage(cycle, period), lowpass);
    // Step 4: seasonal = cycle - lowpass (centers the seasonal around 0).
    for (size_t i = 0; i < n; ++i) {
      seasonal[i] = cycle[i] - lowpass[i];
    }
    // Step 5: deseasonalize and smooth for the new trend.
    for (size_t i = 0; i < n; ++i) {
      work[i] = values[i] - seasonal[i];
    }
    trend_plan.Apply(work, trend);
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
