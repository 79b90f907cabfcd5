#include "src/stats/fourier.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>

#include "src/common/check.h"
#include "src/stats/descriptive.h"

namespace fbdetect {
namespace {

// Magnitude of one DFT coefficient of the mean-removed series.
double CoefficientMagnitude(std::span<const double> values, double mean, size_t k) {
  const size_t n = values.size();
  double real = 0.0;
  double imag = 0.0;
  const double angular = -2.0 * M_PI * static_cast<double>(k) / static_cast<double>(n);
  for (size_t i = 0; i < n; ++i) {
    const double angle = angular * static_cast<double>(i);
    const double centered = values[i] - mean;
    real += centered * std::cos(angle);
    imag += centered * std::sin(angle);
  }
  return std::sqrt(real * real + imag * imag) / static_cast<double>(n);
}

}  // namespace

std::vector<double> FourierMagnitudes(std::span<const double> values, size_t num_coefficients) {
  std::vector<double> magnitudes(num_coefficients, 0.0);
  const size_t n = values.size();
  if (n < 2) {
    return magnitudes;
  }
  const double mean = Mean(values);
  for (size_t k = 1; k <= num_coefficients && k < n; ++k) {
    magnitudes[k - 1] = CoefficientMagnitude(values, mean, k);
  }
  return magnitudes;
}

size_t NextPowerOfTwo(size_t n) {
  size_t power = 1;
  while (power < n) {
    power <<= 1;
  }
  return power;
}

namespace {

// The shape-only part of AutocovarianceSumsFft's transforms for one padded
// size n, a power of two: the bit-reversal permutation and each stage's
// twiddles in both directions. The stage of half-length h (h = 1, 2, 4, ...,
// n/2) keeps w^0 .. w^(h-1) at [h - 1, 2h - 1) of its direction's tables,
// so each table holds n - 1 values.
struct FftPlan {
  std::vector<uint32_t> rev;
  std::vector<double> forward_re;
  std::vector<double> forward_im;
  std::vector<double> inverse_re;
  std::vector<double> inverse_im;
};

// Stage twiddles w_k = wlen^k of one direction, from the serial recurrence
// w *= wlen starting at (1, 0) in real arithmetic: a complex product is
// (ac - bd, ad + bc), which is what GCC computes for std::complex whenever
// the result is not NaN in both parts (only then does it call the C99
// Annex G helper __muldc3, which these finite twiddles never reach). These
// are exactly the values a per-block running twiddle takes in the textbook
// transform.
void FillTwiddles(size_t n, bool inverse, std::vector<double>& tw_re, std::vector<double>& tw_im) {
  tw_re.assign(n - 1, 0.0);
  tw_im.assign(n - 1, 0.0);
  for (size_t half = 1; half < n; half <<= 1) {
    const double angle = (inverse ? 2.0 : -2.0) * M_PI / static_cast<double>(2 * half);
    const std::complex<double> wlen = std::polar(1.0, angle);
    const double wlen_re = wlen.real();
    const double wlen_im = wlen.imag();
    double* re = tw_re.data() + (half - 1);
    double* im = tw_im.data() + (half - 1);
    re[0] = 1.0;
    im[0] = 0.0;
    for (size_t k = 1; k < half; ++k) {
      re[k] = re[k - 1] * wlen_re - im[k - 1] * wlen_im;
      im[k] = re[k - 1] * wlen_im + im[k - 1] * wlen_re;
    }
  }
}

std::unique_ptr<const FftPlan> BuildPlan(size_t n) {
  auto plan = std::make_unique<FftPlan>();
  // rev(i) = rev(i / 2) / 2 + (i odd ? n / 2 : 0).
  plan->rev.assign(n, 0);
  for (size_t i = 1; i < n; ++i) {
    plan->rev[i] = static_cast<uint32_t>((plan->rev[i >> 1] >> 1) | ((i & 1) * (n >> 1)));
  }
  if (n > 1) {
    FillTwiddles(n, /*inverse=*/false, plan->forward_re, plan->forward_im);
    FillTwiddles(n, /*inverse=*/true, plan->inverse_re, plan->inverse_im);
  }
  return plan;
}

// The plan for padded size n, built on first use and shared, immutable, by
// every thread for the rest of the process.
const FftPlan& PlanFor(size_t n) {
  FBD_CHECK(std::has_single_bit(n) && n <= (size_t{1} << 32));
  constexpr size_t kSizes = 33;  // 2^0 .. 2^32.
  static std::once_flag once[kSizes];
  static const FftPlan* plans[kSizes];
  const int bits = std::countr_zero(n);
  std::call_once(once[bits], [n, bits] { plans[bits] = BuildPlan(n).release(); });
  return *plans[bits];
}

// Two doubles side by side in one SSE2 register, one butterfly per lane.
// Lanes never share a sum, so each butterfly runs the scalar operations;
// multiplies and adds stay separate (-ffp-contract=off).
typedef double V2 __attribute__((vector_size(2 * sizeof(double))));

// The butterfly stages of an in-place iterative radix-2 Cooley-Tukey FFT of
// the n complex values (re[i], im[i]), n a power of two, whose input the
// caller has already put in bit-reversed order, with the stage twiddles of
// one direction (FftPlan); the caller applies the inverse's 1/n scaling.
//
// This is the textbook std::complex transform written out in real arithmetic
// with no change of a bit: each butterfly computes odd * w as
// (ac - bd, ad + bc), then even +- that product. Butterflies of one stage
// touch disjoint elements, so the order they run in changes nothing; they
// run two at a time, lanes across k.
void FftStages(double* re, double* im, size_t n, const double* tw_re, const double* tw_im) {
  if (n >= 2) {
    // Half-length 1: the twiddle is w^0 = (1, 0), still multiplied through
    // as the textbook transform does.
    const double c = tw_re[0];
    const double d = tw_im[0];
    for (size_t i = 0; i < n; i += 2) {
      const double a = re[i + 1];
      const double b = im[i + 1];
      const double t_re = a * c - b * d;
      const double t_im = a * d + b * c;
      const double e_re = re[i];
      const double e_im = im[i];
      re[i] = e_re + t_re;
      im[i] = e_im + t_im;
      re[i + 1] = e_re - t_re;
      im[i + 1] = e_im - t_im;
    }
  }
  for (size_t half = 2; half < n; half <<= 1) {
    const double* stage_re = tw_re + (half - 1);
    const double* stage_im = tw_im + (half - 1);
    for (size_t i = 0; i < n; i += 2 * half) {
      double* even_re = re + i;
      double* even_im = im + i;
      double* odd_re = re + i + half;
      double* odd_im = im + i + half;
      for (size_t k = 0; k < half; k += 2) {
        V2 a;
        V2 b;
        V2 c;
        V2 d;
        V2 e_re;
        V2 e_im;
        std::memcpy(&a, odd_re + k, sizeof(a));
        std::memcpy(&b, odd_im + k, sizeof(b));
        std::memcpy(&c, stage_re + k, sizeof(c));
        std::memcpy(&d, stage_im + k, sizeof(d));
        std::memcpy(&e_re, even_re + k, sizeof(e_re));
        std::memcpy(&e_im, even_im + k, sizeof(e_im));
        const V2 t_re = a * c - b * d;
        const V2 t_im = a * d + b * c;
        const V2 sum_re = e_re + t_re;
        const V2 sum_im = e_im + t_im;
        const V2 diff_re = e_re - t_re;
        const V2 diff_im = e_im - t_im;
        std::memcpy(even_re + k, &sum_re, sizeof(sum_re));
        std::memcpy(even_im + k, &sum_im, sizeof(sum_im));
        std::memcpy(odd_re + k, &diff_re, sizeof(diff_re));
        std::memcpy(odd_im + k, &diff_im, sizeof(diff_im));
      }
    }
  }
}

}  // namespace

std::vector<double> AutocovarianceSumsFft(std::span<const double> values, size_t max_lag) {
  const size_t n = values.size();
  if (n == 0) {
    return {};
  }
  const size_t limit = std::min(max_lag, n - 1);
  const double mean = Mean(values);
  // Pad to >= 2n so the circular autocorrelation of the padded signal equals
  // the linear autocorrelation of the original.
  const size_t padded = NextPowerOfTwo(2 * n);
  const FftPlan& plan = PlanFor(padded);
  const uint32_t* rev = plan.rev.data();
  // One allocation: the forward transform's real and imaginary parts, then
  // the inverse transform's real parts.
  std::vector<double> buffer(3 * padded, 0.0);
  double* re = buffer.data();
  double* im = re + padded;
  double* spectrum = im + padded;
  // The centered, zero-padded series, stored straight into bit-reversed
  // order.
  for (size_t i = 0; i < n; ++i) {
    re[rev[i]] = values[i] - mean;
  }
  FftStages(re, im, padded, plan.forward_re.data(), plan.forward_im.data());
  // Power spectrum |X|^2 = x*x + y*y, as std::norm computes it, gathered into
  // bit-reversed order for the inverse transform; its imaginary parts are 0.
  for (size_t i = 0; i < padded; ++i) {
    const double x = re[rev[i]];
    const double y = im[rev[i]];
    spectrum[i] = x * x + y * y;
  }
  std::fill(im, im + padded, 0.0);
  FftStages(spectrum, im, padded, plan.inverse_re.data(), plan.inverse_im.data());
  const double scale = 1.0 / static_cast<double>(padded);
  std::vector<double> sums(limit + 1, 0.0);
  for (size_t lag = 0; lag <= limit; ++lag) {
    sums[lag] = spectrum[lag] * scale;
  }
  return sums;
}

}  // namespace fbdetect
