// The compiled forms of LoessSmoothInto (src/tsa/loess.h), declared so tests
// can run each one. Both come from one kernel source in loess.cc, templated on
// its vector lane count W: the baseline entry at W = 2 (SSE2 on x86-64, the
// only entry elsewhere) and, on x86-64, an AVX2 entry at W = 4.
// LoessSmoothInto picks the AVX2 entry once per process when the CPU has
// AVX2. Lanes run across outputs, never across a sum, so both entries return
// the same bits.
#ifndef FBDETECT_SRC_TSA_LOESS_KERNELS_H_
#define FBDETECT_SRC_TSA_LOESS_KERNELS_H_

#include <cmath>
#include <span>

#include "src/tsa/loess.h"

#if defined(__x86_64__)
#define FBD_LOESS_HAS_AVX2_ENTRY 1
#else
#define FBD_LOESS_HAS_AVX2_ENTRY 0
#endif

namespace fbdetect::loess_internal {

// The tricube weight (1 - |u|^3)^3, and 0 for |u| >= 1. An edge point's
// weights are Tricube(d / (M + 1)) for distances d <= M, where M is its
// largest distance, so every one is positive (tested up to M = 2^20); the
// vector edge fits rely on it and sum every weight.
inline double Tricube(double u) {
  const double a = 1.0 - std::fabs(u) * std::fabs(u) * std::fabs(u);
  return a <= 0.0 ? 0.0 : a * a * a;
}

// Two lanes per vector.
void LoessSmoothIntoBaseline(std::span<const double> values, size_t span,
                             std::span<double> smoothed, LoessScratch& scratch);

#if FBD_LOESS_HAS_AVX2_ENTRY
// Four lanes per vector. Call only where __builtin_cpu_supports("avx2").
void LoessSmoothIntoAvx2(std::span<const double> values, size_t span, std::span<double> smoothed,
                         LoessScratch& scratch);
#endif

}  // namespace fbdetect::loess_internal

#endif  // FBDETECT_SRC_TSA_LOESS_KERNELS_H_
