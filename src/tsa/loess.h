// Loess (locally weighted linear regression) smoother — the building block of
// STL (§5.2.3). Tricube kernel over a sliding neighborhood of `span` points,
// degree-1 local fits, evaluated at every index. The kernel runs W outputs to
// a vector register, W = 4 where the CPU has AVX2 and 2 elsewhere: the
// interior fits 2·W outputs per pass and the edges W points and their mirrors
// per pass. Lanes hold different outputs, never parts of one sum, so every
// output is summed in the order of a one-point-at-a-time fit and the results
// are bit-identical to that simpler form (kept as a test oracle) on every
// CPU. loess_kernels.h declares the two entries for tests.
#ifndef FBDETECT_SRC_TSA_LOESS_H_
#define FBDETECT_SRC_TSA_LOESS_H_

#include <span>
#include <vector>

namespace fbdetect {

// Working storage for LoessSmoothInto: the interior kernel and the edge
// weight rows, W interleaved rows of span weights. Nothing in it carries
// from one call to the next; reusing one across calls only saves their
// allocations.
struct LoessScratch {
  std::vector<double> kernel;
  std::vector<double> kernel_k;
  std::vector<double> rows;
};

// Smooths `values` with a loess window of `span` points (clamped to
// [2, n]) into `smoothed` (values.size() elements, not aliasing `values`),
// with its working storage in `scratch`. An empty input writes nothing.
void LoessSmoothInto(std::span<const double> values, size_t span, std::span<double> smoothed,
                     LoessScratch& scratch);

}  // namespace fbdetect

#endif  // FBDETECT_SRC_TSA_LOESS_H_
