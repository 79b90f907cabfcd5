#include "src/tsa/loess.h"

#include <algorithm>
#include <cmath>

namespace fbdetect {
namespace {

double Tricube(double u) {
  const double a = 1.0 - std::fabs(u) * std::fabs(u) * std::fabs(u);
  return a <= 0.0 ? 0.0 : a * a * a;
}

// Number of interior outputs fitted side by side per pass over the kernel
// (InteriorSums4). Each output keeps its own two sequential sums, so this
// changes no bit.
constexpr size_t kInteriorLanes = 4;

// The degree-1 fit at i from its five tricube-weighted sums over the
// absolute positions x = j.
double FinishEdgeFit(double sw, double swx, double swy, double swxx, double swxy,
                     double value_i, size_t i) {
  if (sw <= 0.0) {
    return value_i;
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

// Tricube-weighted local linear fits at the edge point m, whose window is
// [0, span), and, when `mirrored`, at its mirror n-1-m, whose window is
// [n-span, n); m <= span-1-m. A weight depends only on the distance
// |j - i| and on max_dist, and both points have max_dist = span-1-m, so the
// mirror's weight at j = n-span+t is the left point's at span-1-t: one row
// of `span` tricube weights in `row` serves both, and within the row each
// distance's weight is computed once for j = m - d and j = m + d. Each point
// keeps its five sums in ascending j, skipping zero weights, over the
// absolute x = j.
void FitEdgePair(std::span<const double> values, size_t span, size_t m, bool mirrored,
                 std::vector<double>& row, std::span<double> smoothed) {
  const size_t n = values.size();
  const double max_dist =
      std::max(static_cast<double>(m), static_cast<double>(span - 1 - m));
  for (size_t d = 0; m + d < span; ++d) {
    const double w = max_dist > 0.0 ? Tricube(static_cast<double>(d) / (max_dist + 1.0)) : 1.0;
    row[m + d] = w;
    if (d <= m) {
      row[m - d] = w;
    }
  }
  double sw = 0.0;
  double swx = 0.0;
  double swy = 0.0;
  double swxx = 0.0;
  double swxy = 0.0;
  double rsw = 0.0;
  double rswx = 0.0;
  double rswy = 0.0;
  double rswxx = 0.0;
  double rswxy = 0.0;
  const size_t base = n - span;
  for (size_t t = 0; t < span; ++t) {
    const double w = row[t];
    if (w > 0.0) {
      const double x = static_cast<double>(t);
      sw += w;
      swx += w * x;
      swy += w * values[t];
      swxx += w * x * x;
      swxy += w * x * values[t];
    }
    const double rw = row[span - 1 - t];
    if (mirrored && rw > 0.0) {
      const double x = static_cast<double>(base + t);
      rsw += rw;
      rswx += rw * x;
      rswy += rw * values[base + t];
      rswxx += rw * x * x;
      rswxy += rw * x * values[base + t];
    }
  }
  smoothed[m] = FinishEdgeFit(sw, swx, swy, swxx, swxy, values[m], m);
  if (mirrored) {
    const size_t i = n - 1 - m;
    smoothed[i] = FinishEdgeFit(rsw, rswx, rswy, rswxx, rswxy, values[i], i);
  }
}

// The kernel's two dot products with the windows of four consecutive
// outputs starting at `window`: swy[l] = sum_k kernel[k] * window[l + k] and
// swky[l] = sum_k kernel_k[k] * window[l + k], each summed in ascending k.
// The eight sums are independent chains the CPU can overlap.
void InteriorSums4(const double* window, const double* kernel, const double* kernel_k,
                   size_t span, double* swy, double* swky) {
  double y0 = 0.0;
  double y1 = 0.0;
  double y2 = 0.0;
  double y3 = 0.0;
  double ky0 = 0.0;
  double ky1 = 0.0;
  double ky2 = 0.0;
  double ky3 = 0.0;
  for (size_t k = 0; k < span; ++k) {
    const double w = kernel[k];
    const double wk = kernel_k[k];
    const double v0 = window[k];
    const double v1 = window[k + 1];
    const double v2 = window[k + 2];
    const double v3 = window[k + 3];
    y0 += w * v0;
    y1 += w * v1;
    y2 += w * v2;
    y3 += w * v3;
    ky0 += wk * v0;
    ky1 += wk * v1;
    ky2 += wk * v2;
    ky3 += wk * v3;
  }
  swy[0] = y0;
  swy[1] = y1;
  swy[2] = y2;
  swy[3] = y3;
  swky[0] = ky0;
  swky[1] = ky1;
  swky[2] = ky2;
  swky[3] = ky3;
}

// One output's two dot products, for the interior's last few points.
void InteriorSums1(const double* window, const double* kernel, const double* kernel_k,
                   size_t span, double* swy, double* swky) {
  double y = 0.0;
  double ky = 0.0;
  for (size_t k = 0; k < span; ++k) {
    y += kernel[k] * window[k];
    ky += kernel_k[k] * window[k];
  }
  *swy = y;
  *swky = ky;
}

}  // namespace

std::vector<double> LoessSmooth(std::span<const double> values, size_t span) {
  std::vector<double> smoothed(values.size(), 0.0);
  LoessScratch scratch;
  LoessSmoothInto(values, span, smoothed, scratch);
  return smoothed;
}

void LoessSmoothInto(std::span<const double> values, size_t span, std::span<double> smoothed,
                     LoessScratch& scratch) {
  const size_t n = values.size();
  if (n == 0) {
    return;
  }
  if (n == 1) {
    smoothed[0] = values[0];
    return;
  }
  span = std::clamp<size_t>(span, 2, n);
  const size_t half = span / 2;

  // Away from the edges every window is the same shape, so the tricube
  // weights form one fixed kernel and the fit at i collapses to two kernel
  // dot products:
  //   smoothed[i] = (swy - slope * swk) / sw,
  //   slope = (sw * swky - swk * swy) / (sw * swkk - swk^2),
  // where sw/swk/swkk are kernel constants and swy/swky are dot products of
  // the kernel (and the kernel times the centered offset) with the window.
  // This is the same least-squares fit with the arithmetic hoisted out of the
  // per-point loop. Edge windows are clamped and take the generic fit; with
  // span == n every point is an edge point.
  size_t left_edge = n - half;  // Points fitted on the window [0, span).
  size_t right_edge = half;     // Points fitted on [n - span, n).
  if (n > span) {
    left_edge = half;
    right_edge = span - 1 - half;
    const double center = static_cast<double>(half);
    const double max_dist = std::max(center, static_cast<double>(span - 1 - half));
    std::vector<double>& kernel = scratch.kernel;
    std::vector<double>& kernel_k = scratch.kernel_k;  // kernel * centered offset.
    kernel.resize(span);
    kernel_k.resize(span);
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
    const auto finish = [&](size_t i, double swy, double swky) {
      if (degenerate) {
        smoothed[i] = sw > 0.0 ? swy / sw : values[i];
      } else {
        const double slope = (sw * swky - swk * swy) / denom;
        smoothed[i] = (swy - slope * swk) / sw;
      }
    };
    // Interior: lo = i - half >= 0 and lo + span <= n.
    const size_t end = n - span + half + 1;  // Exclusive.
    size_t i = half;
    double swy[kInteriorLanes];
    double swky[kInteriorLanes];
    for (; i + kInteriorLanes <= end; i += kInteriorLanes) {
      InteriorSums4(values.data() + (i - half), kernel.data(), kernel_k.data(), span, swy, swky);
      for (size_t l = 0; l < kInteriorLanes; ++l) {
        finish(i + l, swy[l], swky[l]);
      }
    }
    for (; i < end; ++i) {
      InteriorSums1(values.data() + (i - half), kernel.data(), kernel_k.data(), span, swy, swky);
      finish(i, swy[0], swky[0]);
    }
  }

  scratch.row.resize(span);
  for (size_t m = 0; m < left_edge; ++m) {
    FitEdgePair(values, span, m, /*mirrored=*/m < right_edge, scratch.row, smoothed);
  }
}

}  // namespace fbdetect
