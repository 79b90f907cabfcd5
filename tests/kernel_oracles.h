// Reference implementations of the numeric kernels under the seasonality
// and long-term detectors, kept as test oracles.
//
// These are the straightforward forms the production kernels were derived
// from: a std::complex radix-2 FFT with a running twiddle per block, a loess
// that sums one output at a time and computes every edge weight row afresh,
// STL built on that loess, and the per-lag autocorrelation. The production
// kernels (src/stats/fourier.cc, src/tsa/loess.cc, src/tsa/stl.cc) perform
// the same floating-point operations in the same order, only faster, so tests
// compare them bit for bit against these.
#ifndef FBDETECT_TESTS_KERNEL_ORACLES_H_
#define FBDETECT_TESTS_KERNEL_ORACLES_H_

#include <algorithm>
#include <cmath>
#include <complex>
#include <span>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/stats/descriptive.h"
#include "src/stats/fourier.h"
#include "src/tsa/stl.h"

namespace fbdetect::oracle {

// In-place iterative radix-2 Cooley-Tukey FFT on std::complex values.
// data.size() must be a power of two; `inverse` includes the 1/n scaling.
//
// GCC 12's SLP vectorizer turns these std::complex products into fused
// multiply-add/subtract instructions (vfmaddsub) on FMA targets such as
// -march=x86-64-v3, even under -ffp-contract=off, so there this transform
// would round differently from the same code on baseline x86-64. Keeping
// that vectorizer off here makes the oracle round as written on every
// target; the production FFT does no complex multiplies and needs no such
// guard.
[[gnu::optimize("no-tree-slp-vectorize")]] inline void Fft(std::vector<std::complex<double>>& data,
                                                          bool inverse) {
  const size_t n = data.size();
  FBD_CHECK(n > 0 && (n & (n - 1)) == 0);
  if (n == 1) {
    return;
  }
  for (size_t i = 1, j = 0; i < n; ++i) {
    size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) {
      j ^= bit;
    }
    j ^= bit;
    if (i < j) {
      std::swap(data[i], data[j]);
    }
  }
  for (size_t len = 2; len <= n; len <<= 1) {
    const double angle = (inverse ? 2.0 : -2.0) * M_PI / static_cast<double>(len);
    const std::complex<double> wlen = std::polar(1.0, angle);
    for (size_t i = 0; i < n; i += len) {
      std::complex<double> w(1.0, 0.0);
      for (size_t k = 0; k < len / 2; ++k) {
        const std::complex<double> even = data[i + k];
        const std::complex<double> odd = data[i + k + len / 2] * w;
        data[i + k] = even + odd;
        data[i + k + len / 2] = even - odd;
        w *= wlen;
      }
    }
  }
  if (inverse) {
    const double scale = 1.0 / static_cast<double>(n);
    for (std::complex<double>& value : data) {
      value *= scale;
    }
  }
}

// Autocovariance sums of the mean-removed series through Fft, zero-padded
// to a power of two >= 2n.
inline std::vector<double> AutocovarianceSumsFft(std::span<const double> values,
                                                 size_t max_lag) {
  const size_t n = values.size();
  if (n == 0) {
    return {};
  }
  const size_t limit = std::min(max_lag, n - 1);
  const double mean = Mean(values);
  const size_t padded = NextPowerOfTwo(2 * n);
  std::vector<std::complex<double>> buffer(padded, std::complex<double>(0.0, 0.0));
  for (size_t i = 0; i < n; ++i) {
    buffer[i] = std::complex<double>(values[i] - mean, 0.0);
  }
  Fft(buffer, /*inverse=*/false);
  for (std::complex<double>& value : buffer) {
    value = std::complex<double>(std::norm(value), 0.0);
  }
  Fft(buffer, /*inverse=*/true);
  std::vector<double> sums(limit + 1, 0.0);
  for (size_t lag = 0; lag <= limit; ++lag) {
    sums[lag] = buffer[lag].real();
  }
  return sums;
}

// Autocorrelation at a single lag (1 <= lag < n); 0.0 outside that range or
// for constant series.
inline double Autocorrelation(std::span<const double> values, size_t lag) {
  const size_t n = values.size();
  if (lag == 0 || lag >= n) {
    return 0.0;
  }
  const double mean = Mean(values);
  double denom = 0.0;
  for (double v : values) {
    const double d = v - mean;
    denom += d * d;
  }
  if (denom <= 0.0) {
    return 0.0;
  }
  double num = 0.0;
  for (size_t i = 0; i + lag < n; ++i) {
    num += (values[i] - mean) * (values[i + lag] - mean);
  }
  const double r = num / denom;
  return std::isfinite(r) ? r : 0.0;
}

inline double Tricube(double u) {
  const double a = 1.0 - std::fabs(u) * std::fabs(u) * std::fabs(u);
  return a <= 0.0 ? 0.0 : a * a * a;
}

// Tricube-weighted local linear fit at point i over a neighborhood of `span`
// points centered on i, shifted at the edges.
inline double LoessFitAt(std::span<const double> values, size_t span, size_t i) {
  const size_t n = values.size();
  size_t lo = i >= span / 2 ? i - span / 2 : 0;
  if (lo + span > n) {
    lo = n - span;
  }
  const size_t hi = lo + span;
  const double max_dist =
      std::max(static_cast<double>(i - lo), static_cast<double>(hi - 1 - i));
  double sw = 0.0;
  double swx = 0.0;
  double swy = 0.0;
  double swxx = 0.0;
  double swxy = 0.0;
  for (size_t j = lo; j < hi; ++j) {
    const double dist = std::fabs(static_cast<double>(j) - static_cast<double>(i));
    const double w = max_dist > 0.0 ? Tricube(dist / (max_dist + 1.0)) : 1.0;
    if (w <= 0.0) {
      continue;
    }
    const double x = static_cast<double>(j);
    sw += w;
    swx += w * x;
    swy += w * values[j];
    swxx += w * x * x;
    swxy += w * x * values[j];
  }
  if (sw <= 0.0) {
    return values[i];
  }
  const double denom = sw * swxx - swx * swx;
  const double x_i = static_cast<double>(i);
  if (std::fabs(denom) < 1e-12 * sw * swxx + 1e-300) {
    return swy / sw;
  }
  const double slope = (sw * swxy - swx * swy) / denom;
  const double intercept = (swy - slope * swx) / sw;
  return slope * x_i + intercept;
}

// Loess with the span clamped to [2, n]: interior points through the fixed
// kernel's two dot products, one output at a time; edge points (and every
// point when span == n) through LoessFitAt.
inline std::vector<double> LoessSmooth(std::span<const double> values, size_t span) {
  const size_t n = values.size();
  std::vector<double> smoothed(n, 0.0);
  if (n == 0) {
    return smoothed;
  }
  if (n == 1) {
    smoothed[0] = values[0];
    return smoothed;
  }
  span = std::clamp<size_t>(span, 2, n);
  const size_t half = span / 2;
  if (n > span) {
    const double center = static_cast<double>(half);
    const double max_dist = std::max(center, static_cast<double>(span - 1 - half));
    std::vector<double> kernel(span);
    std::vector<double> kernel_k(span);
    double sw = 0.0;
    double swk = 0.0;
    double swkk = 0.0;
    for (size_t k = 0; k < span; ++k) {
      const double offset = static_cast<double>(k) - center;
      const double w = max_dist > 0.0 ? Tricube(std::fabs(offset) / (max_dist + 1.0)) : 1.0;
      kernel[k] = w;
      kernel_k[k] = w * offset;
      sw += w;
      swk += w * offset;
      swkk += w * offset * offset;
    }
    const double denom = sw * swkk - swk * swk;
    const bool degenerate = sw <= 0.0 || std::fabs(denom) < 1e-12 * sw * swkk + 1e-300;
    const size_t first = half;
    const size_t last = n - span + half;
    for (size_t i = first; i <= last; ++i) {
      const double* window = values.data() + (i - half);
      double swy = 0.0;
      double swky = 0.0;
      for (size_t k = 0; k < span; ++k) {
        swy += kernel[k] * window[k];
        swky += kernel_k[k] * window[k];
      }
      if (degenerate) {
        smoothed[i] = sw > 0.0 ? swy / sw : values[i];
      } else {
        const double slope = (sw * swky - swk * swy) / denom;
        smoothed[i] = (swy - slope * swk) / sw;
      }
    }
    for (size_t i = 0; i < first; ++i) {
      smoothed[i] = LoessFitAt(values, span, i);
    }
    for (size_t i = last + 1; i < n; ++i) {
      smoothed[i] = LoessFitAt(values, span, i);
    }
    return smoothed;
  }
  for (size_t i = 0; i < n; ++i) {
    smoothed[i] = LoessFitAt(values, span, i);
  }
  return smoothed;
}

// Centered moving average of width `width` over a prefix-sum table (even
// widths use the symmetric window [i - width/2, i + width/2)).
inline std::vector<double> CenteredMovingAverage(std::span<const double> values, size_t width) {
  const size_t n = values.size();
  std::vector<double> out(n, 0.0);
  if (width == 0 || n == 0) {
    return out;
  }
  std::vector<double> prefix(n + 1, 0.0);
  for (size_t i = 0; i < n; ++i) {
    prefix[i + 1] = prefix[i] + values[i];
  }
  for (size_t i = 0; i < n; ++i) {
    const size_t half = width / 2;
    size_t lo = i >= half ? i - half : 0;
    size_t hi = std::min(n, i + half + 1);
    if (width % 2 == 0) {
      hi = std::min(n, i + half);
      if (hi <= lo) {
        hi = lo + 1;
      }
    }
    out[i] = (prefix[hi] - prefix[lo]) / static_cast<double>(hi - lo);
  }
  return out;
}

// STL without the robustness loop: two inner passes, seasonal span 7, trend
// span NextOdd(1.5 * period), low-pass span NextOdd(period), on oracle
// loess, allocating its buffers afresh for every pass and phase.
inline Decomposition StlDecompose(std::span<const double> values, size_t period) {
  const auto next_odd = [](size_t x) { return x % 2 == 0 ? x + 1 : x; };
  Decomposition result;
  const size_t n = values.size();
  result.seasonal.assign(n, 0.0);
  result.trend.assign(values.begin(), values.end());
  result.residual.assign(n, 0.0);
  if (period < 2 || n < 2 * period) {
    return result;
  }
  const size_t trend_span = next_odd(period + period / 2);
  const size_t lowpass_span = next_odd(period);
  std::vector<double> seasonal(n, 0.0);
  std::vector<double> trend(n, 0.0);
  for (int inner = 0; inner < 2; ++inner) {
    std::vector<double> detrended(n);
    for (size_t i = 0; i < n; ++i) {
      detrended[i] = values[i] - trend[i];
    }
    std::vector<double> cycle(n, 0.0);
    for (size_t phase = 0; phase < period; ++phase) {
      std::vector<double> subseries;
      std::vector<size_t> indices;
      for (size_t i = phase; i < n; i += period) {
        subseries.push_back(detrended[i]);
        indices.push_back(i);
      }
      const std::vector<double> smoothed = LoessSmooth(subseries, 7);
      for (size_t k = 0; k < indices.size(); ++k) {
        cycle[indices[k]] = smoothed[k];
      }
    }
    std::vector<double> lowpass = CenteredMovingAverage(cycle, period);
    lowpass = LoessSmooth(lowpass, lowpass_span);
    for (size_t i = 0; i < n; ++i) {
      seasonal[i] = cycle[i] - lowpass[i];
    }
    std::vector<double> deseasonalized(n);
    for (size_t i = 0; i < n; ++i) {
      deseasonalized[i] = values[i] - seasonal[i];
    }
    trend = LoessSmooth(deseasonalized, trend_span);
  }
  result.seasonal = std::move(seasonal);
  result.trend = std::move(trend);
  for (size_t i = 0; i < n; ++i) {
    result.residual[i] = values[i] - result.seasonal[i] - result.trend[i];
  }
  result.valid = true;
  return result;
}

}  // namespace fbdetect::oracle

#endif  // FBDETECT_TESTS_KERNEL_ORACLES_H_
