// The compiled entries of LoessPlan (src/tsa/loess.h), declared so tests can
// run each one. Both come from one kernel source in loess.cc, templated on
// its vector lane count W: the baseline entry at W = 2 (SSE2 on x86-64, the
// only entry elsewhere) and, on x86-64, an AVX2 entry at W = 4. The AVX2
// target brings no FMA into the vector code, and nothing is contracted
// (-ffp-contract=off). The two-argument LoessPlan constructor picks the
// widest entry the CPU runs, once per process. Lanes run across outputs or
// series, never across a sum, so every entry returns the same bits.
#ifndef FBDETECT_SRC_TSA_LOESS_KERNELS_H_
#define FBDETECT_SRC_TSA_LOESS_KERNELS_H_

#include <cmath>
#include <cstddef>
#include <span>

#include "src/tsa/loess.h"

namespace fbdetect::loess_internal {

// The tricube weight (1 - |u|^3)^3, and 0 for |u| >= 1. An edge point's
// weights are Tricube(d / (M + 1)) for distances d <= M, where M is its
// largest distance, so every one is positive (tested up to M = 2^20); the
// vector edge fits rely on it and sum every weight.
inline double Tricube(double u) {
  const double a = 1.0 - std::fabs(u) * std::fabs(u) * std::fabs(u);
  return a <= 0.0 ? 0.0 : a * a * a;
}

// One compiled form of the kernels, W = `lanes` doubles per vector.
struct Entry {
  const char* name;
  size_t lanes;
  bool (*cpu_runs)();
  void (*apply)(const PlanData& data, const double* values, double* smoothed);
  void (*apply_across)(const PlanData& data, const double* values, size_t stride,
                       double* smoothed);
};

// Every compiled entry, narrowest first; the first runs on every CPU.
std::span<const Entry> CompiledEntries();

}  // namespace fbdetect::loess_internal

#endif  // FBDETECT_SRC_TSA_LOESS_KERNELS_H_
