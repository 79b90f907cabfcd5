#include "src/tsa/loess.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/tsa/loess_kernels.h"

namespace fbdetect {
namespace {

using loess_internal::Tricube;

// W doubles side by side in one vector register, one per output. Lanes only
// ever hold different outputs' sums, never parts of one sum, so each output
// is summed in the order of a one-output-at-a-time fit, and multiplies and
// adds stay separate (-ffp-contract=off; the AVX2 entry's target has no
// FMA). Vectors are passed only by reference: a 32-byte vector passed by
// value has a different ABI in AVX2 and baseline code.
template <size_t W>
struct Lanes {
  typedef double V __attribute__((vector_size(W * sizeof(double))));
};

template <size_t W>
[[gnu::always_inline]] inline void Splat(double s, typename Lanes<W>::V& v) {
  for (size_t l = 0; l < W; ++l) {
    v[l] = s;
  }
}

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
// absolute x = j. FitEdgeLanes does the same for W points at once.
void FitEdgePair(std::span<const double> values, size_t span, size_t m, bool mirrored,
                 double* row, std::span<double> smoothed) {
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

// FitEdgePair for the W consecutive left edge points m .. m+W-1, lane l
// holding point i = m + l, and for their mirrors n-1-i, which all exist.
// Lane l's row holds Tricube(|t - i| / (max_dist + 1)) over t in [0, span),
// max_dist = max(i, span-1-i), the same operations as the one-point form
// (the distance is an exact integer, and a vector divide rounds like a
// scalar one); `rows` interleaves the W rows, rows[t * W + l]. The mirror's
// weight at x = n-span+t is the row's at span-1-t, so the mirrors read the
// same rows in reverse. Every weight is positive (loess_kernels.h), so all
// are summed: each lane's five sums run in ascending t, as FitEdgePair's do.
template <size_t W>
[[gnu::always_inline]] inline void FitEdgeLanes(std::span<const double> values, size_t span,
                                                size_t m, double* rows,
                                                std::span<double> smoothed) {
  using V = typename Lanes<W>::V;
  const size_t n = values.size();
  V one = {};
  Splat<W>(1.0, one);
  V point = {};
  V scale = {};  // max_dist + 1.
  for (size_t l = 0; l < W; ++l) {
    const size_t i = m + l;
    point[l] = static_cast<double>(i);
    scale[l] = std::max(static_cast<double>(i), static_cast<double>(span - 1 - i)) + 1.0;
  }
  V x = {};  // t, an exact integer.
  for (size_t t = 0; t < span; ++t, x += one) {
    V d = x - point;
    d = d < V{} ? -d : d;
    const V u = d / scale;
    const V a = one - u * u * u;
    const V w = a * a * a;
    std::memcpy(rows + t * W, &w, sizeof(w));
  }
  V sw = {};
  V swx = {};
  V swy = {};
  V swxx = {};
  V swxy = {};
  V rsw = {};
  V rswx = {};
  V rswy = {};
  V rswxx = {};
  V rswxy = {};
  const size_t base = n - span;
  x = V{};
  V rx = {};  // base + t.
  Splat<W>(static_cast<double>(base), rx);
  for (size_t t = 0; t < span; ++t, x += one, rx += one) {
    V w = {};
    V y = {};
    std::memcpy(&w, rows + t * W, sizeof(w));
    Splat<W>(values[t], y);
    const V wx = w * x;
    sw += w;
    swx += wx;
    swy += w * y;
    swxx += wx * x;
    swxy += wx * y;
    V rw = {};
    V ry = {};
    std::memcpy(&rw, rows + (span - 1 - t) * W, sizeof(rw));
    Splat<W>(values[base + t], ry);
    const V rwx = rw * rx;
    rsw += rw;
    rswx += rwx;
    rswy += rw * ry;
    rswxx += rwx * rx;
    rswxy += rwx * ry;
  }
  for (size_t l = 0; l < W; ++l) {
    const size_t i = m + l;
    smoothed[i] = FinishEdgeFit(sw[l], swx[l], swy[l], swxx[l], swxy[l], values[i], i);
    const size_t r = n - 1 - i;
    smoothed[r] = FinishEdgeFit(rsw[l], rswx[l], rswy[l], rswxx[l], rswxy[l], values[r], r);
  }
}

// The kernel's two dot products with the windows of 2*W consecutive outputs
// starting at `window`: swy[l] = sum_k kernel[k] * window[l + k] and
// swky[l] = sum_k kernel_k[k] * window[l + k], each summed in ascending k.
// Two vectors per sum, so four independent vector chains.
template <size_t W>
[[gnu::always_inline]] inline void InteriorSumsLanes(const double* window, const double* kernel,
                                                     const double* kernel_k, size_t span,
                                                     double* swy, double* swky) {
  using V = typename Lanes<W>::V;
  V y0 = {};
  V y1 = {};
  V ky0 = {};
  V ky1 = {};
  for (size_t k = 0; k < span; ++k) {
    V w = {};
    V wk = {};
    V v0 = {};
    V v1 = {};
    Splat<W>(kernel[k], w);
    Splat<W>(kernel_k[k], wk);
    std::memcpy(&v0, window + k, sizeof(v0));
    std::memcpy(&v1, window + k + W, sizeof(v1));
    y0 += w * v0;
    y1 += w * v1;
    ky0 += wk * v0;
    ky1 += wk * v1;
  }
  std::memcpy(swy, &y0, sizeof(y0));
  std::memcpy(swy + W, &y1, sizeof(y1));
  std::memcpy(swky, &ky0, sizeof(ky0));
  std::memcpy(swky + W, &ky1, sizeof(ky1));
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

// LoessSmoothInto with W lanes per vector; each entry below instantiates it.
template <size_t W>
[[gnu::always_inline]] inline void SmoothLanes(std::span<const double> values, size_t span,
                                               std::span<double> smoothed,
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
    double swy[2 * W] = {};
    double swky[2 * W] = {};
    for (; i + 2 * W <= end; i += 2 * W) {
      InteriorSumsLanes<W>(values.data() + (i - half), kernel.data(), kernel_k.data(), span, swy,
                           swky);
      for (size_t l = 0; l < 2 * W; ++l) {
        finish(i + l, swy[l], swky[l]);
      }
    }
    for (; i < end; ++i) {
      InteriorSums1(values.data() + (i - half), kernel.data(), kernel_k.data(), span, swy, swky);
      finish(i, swy[0], swky[0]);
    }
  }

  // Edge points W at a time while each has a mirror, then one at a time; with
  // span == n they all go one at a time.
  scratch.rows.resize(span * W);
  size_t m = 0;
  if (n > span) {
    for (; m + W <= right_edge; m += W) {
      FitEdgeLanes<W>(values, span, m, scratch.rows.data(), smoothed);
    }
  }
  for (; m < left_edge; ++m) {
    FitEdgePair(values, span, m, /*mirrored=*/m < right_edge, scratch.rows.data(), smoothed);
  }
}

}  // namespace

namespace loess_internal {

void LoessSmoothIntoBaseline(std::span<const double> values, size_t span,
                             std::span<double> smoothed, LoessScratch& scratch) {
  SmoothLanes<2>(values, span, smoothed, scratch);
}

#if FBD_LOESS_HAS_AVX2_ENTRY
// `avx2` alone, not `arch=x86-64-v3`: that level brings FMA, which nothing
// here may use.
[[gnu::target("avx2")]] void LoessSmoothIntoAvx2(std::span<const double> values, size_t span,
                                                 std::span<double> smoothed,
                                                 LoessScratch& scratch) {
  SmoothLanes<4>(values, span, smoothed, scratch);
}
#endif

}  // namespace loess_internal

void LoessSmoothInto(std::span<const double> values, size_t span, std::span<double> smoothed,
                     LoessScratch& scratch) {
#if FBD_LOESS_HAS_AVX2_ENTRY
  // Picked once per process; both entries return the same bits.
  static const auto entry = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") ? &loess_internal::LoessSmoothIntoAvx2
                                          : &loess_internal::LoessSmoothIntoBaseline;
  }();
  entry(values, span, smoothed, scratch);
#else
  loess_internal::LoessSmoothIntoBaseline(values, span, smoothed, scratch);
#endif
}

}  // namespace fbdetect
