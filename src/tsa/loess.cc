#include "src/tsa/loess.h"

#include <algorithm>
#include <cmath>

namespace fbdetect {
namespace {

double Tricube(double u) {
  const double a = 1.0 - std::fabs(u) * std::fabs(u) * std::fabs(u);
  return a <= 0.0 ? 0.0 : a * a * a;
}

// Tricube-weighted local linear fit evaluated at point i (the generic path:
// handles clamped edge windows).
double LoessFitAt(std::span<const double> values, size_t span, size_t i) {
  const size_t n = values.size();
  // Neighborhood of `span` points centered on i, shifted at the edges.
  size_t lo = i >= span / 2 ? i - span / 2 : 0;
  if (lo + span > n) {
    lo = n - span;
  }
  const size_t hi = lo + span;  // Exclusive.
  const double max_dist =
      std::max(static_cast<double>(i - lo), static_cast<double>(hi - 1 - i));
  // Weighted linear fit over the neighborhood.
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
    return swy / sw;  // Fall back to the weighted mean.
  }
  const double slope = (sw * swxy - swx * swy) / denom;
  const double intercept = (swy - slope * swx) / sw;
  return slope * x_i + intercept;
}

}  // namespace

std::vector<double> LoessSmooth(std::span<const double> values, size_t span) {
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

  // Away from the edges every window is the same shape, so the tricube
  // weights form one fixed kernel and the fit at i collapses to two kernel
  // dot products:
  //   smoothed[i] = (swy - slope * swk) / sw,
  //   slope = (sw * swky - swk * swy) / (sw * swkk - swk^2),
  // where sw/swk/swkk are kernel constants and swy/swky are dot products of
  // the kernel (and the kernel times the centered offset) with the window.
  // This is the same least-squares fit with the arithmetic hoisted out of the
  // per-point loop. Edge windows are clamped and keep the generic path.
  const size_t half = span / 2;
  if (n > span) {
    const double center = static_cast<double>(half);
    const double max_dist = std::max(center, static_cast<double>(span - 1 - half));
    std::vector<double> kernel(span);
    std::vector<double> kernel_k(span);  // kernel * centered offset.
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
    // Interior: lo = i - half >= 0 and lo + span <= n.
    const size_t first = half;
    const size_t last = n - span + half;  // Inclusive.
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

}  // namespace fbdetect
