// Loess (locally weighted linear regression) smoother — the building block of
// STL (§5.2.3). Tricube kernel over a sliding neighborhood of `span` points,
// degree-1 local fits, evaluated at every index.
#ifndef FBDETECT_SRC_TSA_LOESS_H_
#define FBDETECT_SRC_TSA_LOESS_H_

#include <span>
#include <vector>

namespace fbdetect {

// Smooths `values` with a loess window of `span` points (clamped to
// [2, n]). Returns a series of the same length. An empty input returns an
// empty vector.
std::vector<double> LoessSmooth(std::span<const double> values, size_t span);

}  // namespace fbdetect

#endif  // FBDETECT_SRC_TSA_LOESS_H_
