// Discrete Fourier machinery.
//
// * FourierMagnitudes — the handful of DFT coefficient magnitudes SOMDedup
//   uses as clustering features (§5.5.1); computed naively since only a few
//   coefficients are needed.
// * AutocovarianceSumsFft — the seasonality detector's autocorrelation sums
//   via the Wiener–Khinchin theorem (FFT -> power spectrum -> inverse FFT),
//   turning the per-candidate O(n^2) ACF scan into O(n log n). The radix-2
//   transform underneath runs on split real/imaginary arrays in plain real
//   arithmetic, two butterflies per SSE2 vector. Its bit-reversal
//   permutation and both directions' stage twiddles (the serial w *= wlen
//   recurrence) come from a plan built once per power-of-two size, shared
//   by every thread and immutable after. It performs the same
//   floating-point operations in the same order as the textbook
//   std::complex transform that tests keep as its oracle, so every sum is
//   bit-identical to it. With no complex multiply left, no target's
//   vectorizer can fuse one into an FMA, so the sums are also the same on
//   every ISA.
#ifndef FBDETECT_SRC_STATS_FOURIER_H_
#define FBDETECT_SRC_STATS_FOURIER_H_

#include <span>
#include <vector>

namespace fbdetect {

// Magnitudes of DFT coefficients 1..num_coefficients of the mean-removed
// series, each normalized by n. O(n * num_coefficients) — the callers only
// need a handful of coefficients, so no FFT machinery is warranted.
std::vector<double> FourierMagnitudes(std::span<const double> values, size_t num_coefficients);

// Smallest power of two >= n (and >= 1).
size_t NextPowerOfTwo(size_t n);

// Raw autocovariance sums of the mean-removed series via Wiener–Khinchin:
//   result[k] = sum_{i=0}^{n-1-k} (v[i] - mean) * (v[i+k] - mean)
// for k = 0..max_lag (inclusive; clamped to n-1). Zero-padding to a
// power-of-two >= 2n makes the circular correlation equal the linear one.
// O(n log n); used by AutocorrelationFunction.
std::vector<double> AutocovarianceSumsFft(std::span<const double> values, size_t max_lag);

}  // namespace fbdetect

#endif  // FBDETECT_SRC_STATS_FOURIER_H_
