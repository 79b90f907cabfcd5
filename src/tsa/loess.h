// Loess (locally weighted linear regression) smoother — the building block of
// STL (§5.2.3). Tricube kernel over a sliding neighborhood of `span` points,
// degree-1 local fits, evaluated at every index. Interior points are fitted
// four at a time and each edge weight row serves a point and its mirror, but
// every output is summed in the order of a one-point-at-a-time fit, so the
// results are bit-identical to that simpler form (kept as a test oracle).
#ifndef FBDETECT_SRC_TSA_LOESS_H_
#define FBDETECT_SRC_TSA_LOESS_H_

#include <span>
#include <vector>

namespace fbdetect {

// Smooths `values` with a loess window of `span` points (clamped to
// [2, n]). Returns a series of the same length. An empty input returns an
// empty vector.
std::vector<double> LoessSmooth(std::span<const double> values, size_t span);

// Working storage for LoessSmoothInto: the interior kernel and one edge
// weight row. Nothing in it carries from one call to the next; reusing one
// across calls only saves their allocations.
struct LoessScratch {
  std::vector<double> kernel;
  std::vector<double> kernel_k;
  std::vector<double> row;
};

// LoessSmooth writing into `smoothed` (values.size() elements, not aliasing
// `values`), with its working storage in `scratch`.
void LoessSmoothInto(std::span<const double> values, size_t span, std::span<double> smoothed,
                     LoessScratch& scratch);

}  // namespace fbdetect

#endif  // FBDETECT_SRC_TSA_LOESS_H_
