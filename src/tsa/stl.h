// Seasonal-Trend decomposition using Loess (STL), Cleveland et al. 1990,
// used by the seasonality detector (§5.2.3) and the long-term detector
// (§5.3). Also provides the moving-average decomposition the paper evaluated
// as an alternative and rejected.
#ifndef FBDETECT_SRC_TSA_STL_H_
#define FBDETECT_SRC_TSA_STL_H_

#include <cstddef>
#include <span>
#include <vector>

namespace fbdetect {

struct Decomposition {
  std::vector<double> seasonal;
  std::vector<double> trend;
  std::vector<double> residual;
  bool valid = false;

  // trend[i] + residual[i] — what the seasonality detector compares medians
  // over after removing seasonality.
  std::vector<double> Deseasonalized() const;
};

// Decomposes `values` with seasonal period `period` (>= 2, and the series
// must contain at least two full periods; otherwise returns valid=false with
// all signal assigned to trend=input). Plain STL without the robustness
// loop: two inner passes, a seasonal span of 7 and trend and low-pass spans
// derived from the period. Every step is an unweighted loess, a moving
// average or a subtraction, so for a fixed (n, period) the seasonal and
// trend are linear in `values`. Each loess shape (trend, low-pass, and the
// one or two cycle-subseries lengths) is planned once per call and applied
// in both passes; the cycle-subseries are smoothed in vector lanes across
// phases (LoessPlan::ApplyAcross), and the phases left over after the last
// full pass one at a time. Nothing is cached across calls. The
// components are bit-identical to the one-point-at-a-time form kept as a
// test oracle.
Decomposition StlDecompose(std::span<const double> values, size_t period);

// Classical moving-average decomposition: centered MA of width `period` as
// trend, per-phase means of the detrended series as seasonality. The paper
// found this inferior to STL (too sensitive to sudden changes); it is kept as
// the comparison baseline.
Decomposition MovingAverageDecompose(std::span<const double> values, size_t period);

}  // namespace fbdetect

#endif  // FBDETECT_SRC_TSA_STL_H_
