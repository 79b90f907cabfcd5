#include "src/tsa/loess.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/common/check.h"
#include "src/tsa/loess_kernels.h"

namespace fbdetect {
namespace {

using loess_internal::PlanData;
using loess_internal::Tricube;

// W doubles side by side in one vector register. Lanes only ever hold
// different outputs' or different series' sums, never parts of one sum, so
// each output is summed in the order of a one-output-at-a-time fit, and
// multiplies and adds stay separate (-ffp-contract=off; the AVX2 entry's
// target has no FMA). Vectors are passed only by reference: a 32-byte vector
// passed by value has a different ABI in AVX2 and baseline code.
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

template <size_t W>
[[gnu::always_inline]] inline void Load(const double* p, typename Lanes<W>::V& v) {
  std::memcpy(&v, p, sizeof(v));
}

template <size_t W>
[[gnu::always_inline]] inline void Store(const typename Lanes<W>::V& v, double* p) {
  std::memcpy(p, &v, sizeof(v));
}

// The five tricube-weighted sums of W edge fits over the absolute positions
// x, one fit per lane.
template <size_t W>
struct EdgeSums {
  typename Lanes<W>::V sw = {};
  typename Lanes<W>::V swx = {};
  typename Lanes<W>::V swy = {};
  typename Lanes<W>::V swxx = {};
  typename Lanes<W>::V swxy = {};
};

// The weighted least-squares lines of W edge fits at x, and their design
// determinants; lanes are independent fits.
template <size_t W>
[[gnu::always_inline]] inline void EdgeLines(const EdgeSums<W>& s, const typename Lanes<W>::V& x,
                                             typename Lanes<W>::V& denom,
                                             typename Lanes<W>::V& line) {
  using V = typename Lanes<W>::V;
  denom = s.sw * s.swxx - s.swx * s.swx;
  const V slope = (s.sw * s.swxy - s.swx * s.swy) / denom;
  const V intercept = (s.swy - slope * s.swx) / s.sw;
  line = slope * x + intercept;
}

// One edge fit from its sums and its lane of EdgeLines: the line, the
// weighted mean when the design is degenerate, or the point's own value when
// no weight is left.
double FinishEdge(double sw, double swy, double swxx, double denom, double line, double value) {
  if (sw <= 0.0) {
    return value;
  }
  if (std::fabs(denom) < 1e-12 * sw * swxx + 1e-300) {
    return swy / sw;
  }
  return line;
}

// An interior fit from the kernel's two dot products, when the kernel is
// degenerate (the lanes' line form covers every other case).
double FinishDegenerate(const PlanData& plan, double swy, double value) {
  return plan.sw > 0.0 ? swy / plan.sw : value;
}

// Builds the plan for n points and span.
//
// Away from the edges every window is the same shape, so the tricube weights
// form one fixed kernel and the fit at i collapses to two kernel dot
// products:
//   smoothed[i] = (swy - slope * swk) / sw,
//   slope = (sw * swky - swk * swy) / (sw * swkk - swk^2),
// where sw/swk/swkk are kernel constants and swy/swky are dot products of
// the kernel (and the kernel times the centered offset) with the window.
// Edge windows are clamped and take the full fit in each apply; with
// span == n every point is an edge point.
void Plan(size_t n, size_t span, size_t lanes, PlanData& plan) {
  plan = PlanData();
  plan.n = n;
  plan.lanes = lanes;
  if (n < 2) {
    return;
  }
  span = std::clamp<size_t>(span, 2, n);
  const size_t half = span / 2;
  plan.span = span;
  plan.half = half;
  plan.interior_end = half;
  plan.left_edge = n - half;
  plan.right_edge = half;
  if (n <= span) {
    return;
  }
  plan.left_edge = half;
  plan.right_edge = span - 1 - half;
  plan.interior_end = n - span + half + 1;
  const double center = static_cast<double>(half);
  const double max_dist = std::max(center, static_cast<double>(span - 1 - half));
  plan.kernel.resize(span);
  plan.kernel_k.resize(span);
  double sw = 0.0;
  double swk = 0.0;
  double swkk = 0.0;
  for (size_t k = 0; k < span; ++k) {
    const double offset = static_cast<double>(k) - center;
    const double w = max_dist > 0.0 ? Tricube(std::fabs(offset) / (max_dist + 1.0)) : 1.0;
    plan.kernel[k] = w;
    plan.kernel_k[k] = w * offset;
    sw += w;
    swk += w * offset;
    swkk += w * offset * offset;
  }
  plan.sw = sw;
  plan.swk = swk;
  plan.denom = sw * swkk - swk * swk;
  plan.degenerate = sw <= 0.0 || std::fabs(plan.denom) < 1e-12 * sw * swkk + 1e-300;
}

// The interior fits of `count` (<= 2) vectors of W consecutive outputs
// starting at i: swy[l] = sum_k kernel[k] * values[i - half + l + k] and
// swky[l] likewise with kernel_k, each summed in ascending k; two vectors
// per sum make four independent vector chains.
template <size_t W, size_t kVectors>
[[gnu::always_inline]] inline void InteriorLanes(const PlanData& plan, const double* values,
                                                 size_t i, double* smoothed) {
  using V = typename Lanes<W>::V;
  const double* window = values + (i - plan.half);
  V y[kVectors] = {};
  V ky[kVectors] = {};
  for (size_t k = 0; k < plan.span; ++k) {
    V w = {};
    V wk = {};
    Splat<W>(plan.kernel[k], w);
    Splat<W>(plan.kernel_k[k], wk);
    for (size_t v = 0; v < kVectors; ++v) {
      V data = {};
      Load<W>(window + k + v * W, data);
      y[v] += w * data;
      ky[v] += wk * data;
    }
  }
  for (size_t v = 0; v < kVectors; ++v) {
    if (!plan.degenerate) {
      V sw = {};
      V swk = {};
      V denom = {};
      Splat<W>(plan.sw, sw);
      Splat<W>(plan.swk, swk);
      Splat<W>(plan.denom, denom);
      const V slope = (sw * ky[v] - swk * y[v]) / denom;
      const V fit = (y[v] - slope * swk) / sw;
      Store<W>(fit, smoothed + i + v * W);
    } else {
      for (size_t l = 0; l < W; ++l) {
        const size_t at = i + v * W + l;
        smoothed[at] = FinishDegenerate(plan, y[v][l], values[at]);
      }
    }
  }
}

// One interior output, for the last few points.
void InteriorOne(const PlanData& plan, const double* values, size_t i, double* smoothed) {
  const double* window = values + (i - plan.half);
  double swy = 0.0;
  double swky = 0.0;
  for (size_t k = 0; k < plan.span; ++k) {
    swy += plan.kernel[k] * window[k];
    swky += plan.kernel_k[k] * window[k];
  }
  if (plan.degenerate) {
    smoothed[i] = FinishDegenerate(plan, swy, values[i]);
  } else {
    const double slope = (plan.sw * swky - plan.swk * swy) / plan.denom;
    smoothed[i] = (swy - slope * plan.swk) / plan.sw;
  }
}

// LoessPlan::Apply with W lanes. The interior goes 2·W outputs per pass,
// then W, then one at a time. The edges go W points per pass, with their
// mirrors.
//
// Edge point m fits on [0, span) with max_dist = max(m, span-1-m); its
// mirror n-1-m fits on [n-span, n) with the same max_dist, so the mirror's
// weight at x = n-span+t is m's at span-1-t and one row serves both. Lane l
// of a pass builds the row Tricube(|t - i| / (max_dist + 1)) of its point i
// (lanes past the last edge point repeat it) with the same operations as the
// one-point form: the distance is an exact integer, and a vector divide
// rounds like a scalar one. `rows` interleaves the W rows, rows[t * W + l].
// Every weight is positive (loess_kernels.h), so each lane's five sums take
// every t in ascending order, reusing w*x, as the one-point fit does.
template <size_t W>
[[gnu::always_inline]] inline void ApplyLanes(const PlanData& plan, const double* values,
                                              double* smoothed) {
  using V = typename Lanes<W>::V;
  const size_t n = plan.n;
  if (n < 2) {
    if (n == 1) {
      smoothed[0] = values[0];
    }
    return;
  }
  const size_t span = plan.span;
  size_t i = plan.half;
  for (; i + 2 * W <= plan.interior_end; i += 2 * W) {
    InteriorLanes<W, 2>(plan, values, i, smoothed);
  }
  for (; i + W <= plan.interior_end; i += W) {
    InteriorLanes<W, 1>(plan, values, i, smoothed);
  }
  for (; i < plan.interior_end; ++i) {
    InteriorOne(plan, values, i, smoothed);
  }

  V one = {};
  Splat<W>(1.0, one);
  const size_t base = n - span;
  std::vector<double> row_buffer(span * W);
  double* rows = row_buffer.data();
  for (size_t first = 0; first < plan.left_edge; first += W) {
    V point = {};
    V mirror_point = {};
    V scale = {};  // max_dist + 1.
    for (size_t l = 0; l < W; ++l) {
      const size_t m = std::min(first + l, plan.left_edge - 1);
      point[l] = static_cast<double>(m);
      mirror_point[l] = static_cast<double>(n - 1 - m);
      scale[l] = std::max(static_cast<double>(m), static_cast<double>(span - 1 - m)) + 1.0;
    }
    V x = {};  // t, an exact integer.
    for (size_t t = 0; t < span; ++t, x += one) {
      V d = x - point;
      d = d < V{} ? -d : d;
      const V u = d / scale;
      const V a = one - u * u * u;
      const V w = a * a * a;
      Store<W>(w, rows + t * W);
    }
    EdgeSums<W> left;
    EdgeSums<W> mirror;
    x = V{};
    V rx = {};  // base + t.
    Splat<W>(static_cast<double>(base), rx);
    for (size_t t = 0; t < span; ++t, x += one, rx += one) {
      V w = {};
      V y = {};
      Load<W>(rows + t * W, w);
      Splat<W>(values[t], y);
      const V wx = w * x;
      left.sw += w;
      left.swx += wx;
      left.swy += w * y;
      left.swxx += wx * x;
      left.swxy += wx * y;
      V rw = {};
      V ry = {};
      Load<W>(rows + (span - 1 - t) * W, rw);
      Splat<W>(values[base + t], ry);
      const V rwx = rw * rx;
      mirror.sw += rw;
      mirror.swx += rwx;
      mirror.swy += rw * ry;
      mirror.swxx += rwx * rx;
      mirror.swxy += rwx * ry;
    }
    V denom = {};
    V line = {};
    V rdenom = {};
    V rline = {};
    EdgeLines<W>(left, point, denom, line);
    EdgeLines<W>(mirror, mirror_point, rdenom, rline);
    for (size_t l = 0; l < W && first + l < plan.left_edge; ++l) {
      const size_t m = first + l;
      smoothed[m] =
          FinishEdge(left.sw[l], left.swy[l], left.swxx[l], denom[l], line[l], values[m]);
      if (m < plan.right_edge) {
        const size_t r = n - 1 - m;
        smoothed[r] = FinishEdge(mirror.sw[l], mirror.swy[l], mirror.swxx[l], rdenom[l],
                                 rline[l], values[r]);
      }
    }
  }
}

// Output i of every series from its interior dot products; sw, swk and
// denom are the kernel's constants, broadcast.
template <size_t W>
[[gnu::always_inline]] inline void FinishInteriorAcross(
    const PlanData& plan, const double* values, size_t stride, size_t i,
    const typename Lanes<W>::V& sw, const typename Lanes<W>::V& swk,
    const typename Lanes<W>::V& denom, const typename Lanes<W>::V& swy,
    const typename Lanes<W>::V& swky, double* smoothed) {
  using V = typename Lanes<W>::V;
  if (plan.degenerate) {
    for (size_t l = 0; l < W; ++l) {
      smoothed[i * stride + l] = FinishDegenerate(plan, swy[l], values[i * stride + l]);
    }
    return;
  }
  const V slope = (sw * swky - swk * swy) / denom;
  const V fit = (swy - slope * swk) / sw;
  Store<W>(fit, smoothed + i * stride);
}

// Edge output `at` of every series: fills the weight-only sums of `sums`
// from sw, swx and swxx, which every series shares, then finishes each
// series' fit from them and its own swy and swxy.
template <size_t W>
[[gnu::always_inline]] inline void FinishEdgeAcross(EdgeSums<W>& sums, double sw, double swx,
                                                    double swxx, size_t at, const double* values,
                                                    size_t stride, double* smoothed) {
  using V = typename Lanes<W>::V;
  Splat<W>(sw, sums.sw);
  Splat<W>(swx, sums.swx);
  Splat<W>(swxx, sums.swxx);
  V x = {};
  V denom = {};
  V line = {};
  Splat<W>(static_cast<double>(at), x);
  EdgeLines<W>(sums, x, denom, line);
  for (size_t l = 0; l < W; ++l) {
    smoothed[at * stride + l] =
        FinishEdge(sw, sums.swy[l], swxx, denom[l], line[l], values[at * stride + l]);
  }
}

// LoessPlan::ApplyAcross with W lanes, lane l smoothing series l: every
// output runs the one-series fit's operations on all W series at once, with
// the weights broadcast. Interior outputs go two per pass (four vector
// chains), edge points with their mirrors one per pass; an edge point's row
// and weight-only sums are scalar, shared by every series.
template <size_t W>
[[gnu::always_inline]] inline void ApplyAcrossLanes(const PlanData& plan, const double* values,
                                                    size_t stride, double* smoothed) {
  using V = typename Lanes<W>::V;
  const size_t n = plan.n;
  if (n < 2) {
    if (n == 1) {
      std::memmove(smoothed, values, W * sizeof(double));
    }
    return;
  }
  const size_t span = plan.span;
  V sw = {};
  V swk = {};
  V denom = {};
  Splat<W>(plan.sw, sw);
  Splat<W>(plan.swk, swk);
  Splat<W>(plan.denom, denom);
  size_t i = plan.half;
  for (; i + 2 <= plan.interior_end; i += 2) {
    const double* window = values + (i - plan.half) * stride;
    V y0 = {};
    V y1 = {};
    V ky0 = {};
    V ky1 = {};
    for (size_t k = 0; k < span; ++k) {
      V w = {};
      V wk = {};
      V v0 = {};
      V v1 = {};
      Splat<W>(plan.kernel[k], w);
      Splat<W>(plan.kernel_k[k], wk);
      Load<W>(window + k * stride, v0);
      Load<W>(window + (k + 1) * stride, v1);
      y0 += w * v0;
      y1 += w * v1;
      ky0 += wk * v0;
      ky1 += wk * v1;
    }
    FinishInteriorAcross<W>(plan, values, stride, i, sw, swk, denom, y0, ky0, smoothed);
    FinishInteriorAcross<W>(plan, values, stride, i + 1, sw, swk, denom, y1, ky1, smoothed);
  }
  for (; i < plan.interior_end; ++i) {
    const double* window = values + (i - plan.half) * stride;
    V y = {};
    V ky = {};
    for (size_t k = 0; k < span; ++k) {
      V w = {};
      V wk = {};
      V v = {};
      Splat<W>(plan.kernel[k], w);
      Splat<W>(plan.kernel_k[k], wk);
      Load<W>(window + k * stride, v);
      y += w * v;
      ky += wk * v;
    }
    FinishInteriorAcross<W>(plan, values, stride, i, sw, swk, denom, y, ky, smoothed);
  }

  const size_t base = n - span;
  std::vector<double> row(span);
  for (size_t m = 0; m < plan.left_edge; ++m) {
    const double scale =
        std::max(static_cast<double>(m), static_cast<double>(span - 1 - m)) + 1.0;
    for (size_t t = 0; t < span; ++t) {
      const size_t d = t > m ? t - m : m - t;
      row[t] = Tricube(static_cast<double>(d) / scale);
    }
    double lsw = 0.0;
    double lswx = 0.0;
    double lswxx = 0.0;
    double rsw = 0.0;
    double rswx = 0.0;
    double rswxx = 0.0;
    EdgeSums<W> left;
    EdgeSums<W> mirror;
    for (size_t t = 0; t < span; ++t) {
      const double x = static_cast<double>(t);
      const double rx = static_cast<double>(base + t);
      const double w = row[t];
      const double wx = w * x;
      const double rw = row[span - 1 - t];
      const double rwx = rw * rx;
      lsw += w;
      lswx += wx;
      lswxx += wx * x;
      rsw += rw;
      rswx += rwx;
      rswxx += rwx * rx;
      V vw = {};
      V vwx = {};
      V vrw = {};
      V vrwx = {};
      V y = {};
      V ry = {};
      Splat<W>(w, vw);
      Splat<W>(wx, vwx);
      Splat<W>(rw, vrw);
      Splat<W>(rwx, vrwx);
      Load<W>(values + t * stride, y);
      Load<W>(values + (base + t) * stride, ry);
      left.swy += vw * y;
      left.swxy += vwx * y;
      mirror.swy += vrw * ry;
      mirror.swxy += vrwx * ry;
    }
    FinishEdgeAcross<W>(left, lsw, lswx, lswxx, m, values, stride, smoothed);
    if (m < plan.right_edge) {
      FinishEdgeAcross<W>(mirror, rsw, rswx, rswxx, n - 1 - m, values, stride, smoothed);
    }
  }
}

// The entries: each instantiates the kernel source at its lane count under
// its target. `avx2` alone, not `arch=x86-64-v3`: that level brings FMA,
// which nothing here may use.
void ApplyBaseline(const PlanData& plan, const double* values, double* smoothed) {
  ApplyLanes<2>(plan, values, smoothed);
}
void ApplyAcrossBaseline(const PlanData& plan, const double* values, size_t stride,
                         double* smoothed) {
  ApplyAcrossLanes<2>(plan, values, stride, smoothed);
}
bool RunsEverywhere() { return true; }

#if defined(__x86_64__)
[[gnu::target("avx2")]] void ApplyAvx2(const PlanData& plan, const double* values,
                                       double* smoothed) {
  ApplyLanes<4>(plan, values, smoothed);
}
[[gnu::target("avx2")]] void ApplyAcrossAvx2(const PlanData& plan, const double* values,
                                             size_t stride, double* smoothed) {
  ApplyAcrossLanes<4>(plan, values, stride, smoothed);
}
bool RunsAvx2() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
}
#endif

constexpr loess_internal::Entry kEntries[] = {
    {"baseline", 2, &RunsEverywhere, &ApplyBaseline, &ApplyAcrossBaseline},
#if defined(__x86_64__)
    {"avx2", 4, &RunsAvx2, &ApplyAvx2, &ApplyAcrossAvx2},
#endif
};

// The widest entry this CPU runs, picked once per process; every entry
// returns the same bits.
const loess_internal::Entry& ProcessEntry() {
  static const loess_internal::Entry* const entry = [] {
    const loess_internal::Entry* widest = &kEntries[0];
    for (const loess_internal::Entry& candidate : kEntries) {
      if (candidate.cpu_runs()) {
        widest = &candidate;
      }
    }
    return widest;
  }();
  return *entry;
}

}  // namespace

namespace loess_internal {

std::span<const Entry> CompiledEntries() { return kEntries; }

}  // namespace loess_internal

LoessPlan::LoessPlan(size_t n, size_t span) : LoessPlan(n, span, ProcessEntry()) {}

LoessPlan::LoessPlan(size_t n, size_t span, const loess_internal::Entry& entry)
    : entry_(&entry) {
  Plan(n, span, entry.lanes, data_);
}

void LoessPlan::Apply(std::span<const double> values, std::span<double> smoothed) const {
  FBD_CHECK(values.size() == data_.n && smoothed.size() == data_.n);
  entry_->apply(data_, values.data(), smoothed.data());
}

void LoessPlan::ApplyAcross(const double* values, size_t stride, double* smoothed) const {
  FBD_CHECK(stride >= data_.lanes);
  entry_->apply_across(data_, values, stride, smoothed);
}

}  // namespace fbdetect
