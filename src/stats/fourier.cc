#include "src/stats/fourier.h"

#include <algorithm>
#include <cmath>
#include <complex>

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

// The butterfly stages of an in-place iterative radix-2 Cooley-Tukey FFT of
// the n complex values (re[i], im[i]), n a power of two, whose input the
// caller has already put in bit-reversed order. `inverse` flips the
// twiddles' sign and leaves the 1/n scaling to the caller.
//
// This is the textbook std::complex transform written out in real arithmetic
// with no change of a bit: a complex product is (ac - bd, ad + bc), which is
// what GCC computes for std::complex whenever the result is not NaN in both
// parts (only then does it call the C99 Annex G helper __muldc3, which finite
// inputs never reach). Stage twiddles are w_k = wlen^k from the serial
// recurrence w *= wlen starting at (1, 0), exactly as a per-block running
// twiddle would produce them, but filled once per stage into `tw_re`/`tw_im`
// (n/2 doubles each) instead of once per block. Butterflies of one stage
// touch disjoint elements, so the order they run in changes nothing; two at
// a time lets the compiler pair them in vector registers.
void FftStages(double* re, double* im, size_t n, bool inverse, double* tw_re, double* tw_im) {
  for (size_t len = 2; len <= n; len <<= 1) {
    const size_t half = len / 2;
    const double angle = (inverse ? 2.0 : -2.0) * M_PI / static_cast<double>(len);
    const std::complex<double> wlen = std::polar(1.0, angle);
    const double wlen_re = wlen.real();
    const double wlen_im = wlen.imag();
    tw_re[0] = 1.0;
    tw_im[0] = 0.0;
    for (size_t k = 1; k < half; ++k) {
      tw_re[k] = tw_re[k - 1] * wlen_re - tw_im[k - 1] * wlen_im;
      tw_im[k] = tw_re[k - 1] * wlen_im + tw_im[k - 1] * wlen_re;
    }
    if (half == 1) {
      for (size_t i = 0; i < n; i += 2) {
        const double a = re[i + 1];
        const double b = im[i + 1];
        const double t_re = a * tw_re[0] - b * tw_im[0];
        const double t_im = a * tw_im[0] + b * tw_re[0];
        const double e_re = re[i];
        const double e_im = im[i];
        re[i] = e_re + t_re;
        im[i] = e_im + t_im;
        re[i + 1] = e_re - t_re;
        im[i + 1] = e_im - t_im;
      }
      continue;
    }
    for (size_t i = 0; i < n; i += len) {
      double* even_re = re + i;
      double* even_im = im + i;
      double* odd_re = re + i + half;
      double* odd_im = im + i + half;
      for (size_t k = 0; k < half; k += 2) {
        const double a0 = odd_re[k];
        const double a1 = odd_re[k + 1];
        const double b0 = odd_im[k];
        const double b1 = odd_im[k + 1];
        const double c0 = tw_re[k];
        const double c1 = tw_re[k + 1];
        const double d0 = tw_im[k];
        const double d1 = tw_im[k + 1];
        const double er0 = even_re[k];
        const double er1 = even_re[k + 1];
        const double ei0 = even_im[k];
        const double ei1 = even_im[k + 1];
        const double tr0 = a0 * c0 - b0 * d0;
        const double tr1 = a1 * c1 - b1 * d1;
        const double ti0 = a0 * d0 + b0 * c0;
        const double ti1 = a1 * d1 + b1 * c1;
        even_re[k] = er0 + tr0;
        even_re[k + 1] = er1 + tr1;
        even_im[k] = ei0 + ti0;
        even_im[k + 1] = ei1 + ti1;
        odd_re[k] = er0 - tr0;
        odd_re[k + 1] = er1 - tr1;
        odd_im[k] = ei0 - ti0;
        odd_im[k + 1] = ei1 - ti1;
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
  // The bit-reversal permutation:
  // rev(i) = rev(i / 2) / 2 + (i odd ? padded / 2 : 0).
  std::vector<size_t> rev(padded, 0);
  for (size_t i = 1; i < padded; ++i) {
    rev[i] = (rev[i >> 1] >> 1) | ((i & 1) * (padded >> 1));
  }
  // One allocation: the forward transform's real and imaginary parts, the
  // inverse transform's real parts, then the twiddle table.
  std::vector<double> buffer(4 * padded, 0.0);
  double* re = buffer.data();
  double* im = re + padded;
  double* spectrum = im + padded;
  double* tw_re = spectrum + padded;
  double* tw_im = tw_re + padded / 2;
  // The centered, zero-padded series, stored straight into bit-reversed
  // order.
  for (size_t i = 0; i < n; ++i) {
    re[rev[i]] = values[i] - mean;
  }
  FftStages(re, im, padded, /*inverse=*/false, tw_re, tw_im);
  // Power spectrum |X|^2 = x*x + y*y, as std::norm computes it, gathered into
  // bit-reversed order for the inverse transform; its imaginary parts are 0.
  for (size_t i = 0; i < padded; ++i) {
    const double x = re[rev[i]];
    const double y = im[rev[i]];
    spectrum[i] = x * x + y * y;
  }
  std::fill(im, im + padded, 0.0);
  FftStages(spectrum, im, padded, /*inverse=*/true, tw_re, tw_im);
  const double scale = 1.0 / static_cast<double>(padded);
  std::vector<double> sums(limit + 1, 0.0);
  for (size_t lag = 0; lag <= limit; ++lag) {
    sums[lag] = spectrum[lag] * scale;
  }
  return sums;
}

}  // namespace fbdetect
