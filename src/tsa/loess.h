// Loess (locally weighted linear regression) smoother — the building block of
// STL (§5.2.3). Tricube kernel over a sliding neighborhood of `span` points,
// degree-1 local fits, evaluated at every index.
//
// A LoessPlan holds what depends only on the shape (n, span): the interior
// kernel and its constants. Applying it fits the interior with that kernel
// and rebuilds each edge point's weight row, W points at a time, summing
// weights and data in one pass. Lanes hold different outputs (Apply) or
// different series (ApplyAcross), never parts of one sum, so every output is
// summed in the order of a one-point-at-a-time fit and the results are
// bit-identical to that simpler form (kept as a test oracle) on every CPU.
// The plan is applied by one compiled entry, 2 or 4 lanes wide, picked once
// per process (loess_kernels.h).
#ifndef FBDETECT_SRC_TSA_LOESS_H_
#define FBDETECT_SRC_TSA_LOESS_H_

#include <cstddef>
#include <span>
#include <vector>

namespace fbdetect {
namespace loess_internal {

struct Entry;

// Everything about one loess that depends only on (n, span).
struct PlanData {
  size_t n = 0;
  size_t lanes = 0;  // The entry's W.
  size_t span = 0;   // Clamped to [2, n] when n >= 2.
  size_t half = 0;   // span / 2.
  // Interior outputs [half, interior_end) (only when n > span) fit on the
  // window [i - half, i - half + span) with one fixed kernel.
  size_t interior_end = 0;
  std::vector<double> kernel;
  std::vector<double> kernel_k;  // kernel * centered offset.
  double sw = 0.0;
  double swk = 0.0;
  double denom = 0.0;
  bool degenerate = false;
  // Edge points m < left_edge fit on [0, span); for m < right_edge the
  // mirror n - 1 - m fits on [n - span, n) with m's weights reversed.
  size_t left_edge = 0;
  size_t right_edge = 0;
};

}  // namespace loess_internal

// A loess of `span` points (clamped to [2, n]) over series of n points.
// Immutable once built; one plan serves any number of series of that shape.
class LoessPlan {
 public:
  // Plans for the process's loess entry.
  LoessPlan(size_t n, size_t span);
  // Plans for `entry`, which this CPU must run (loess_kernels.h).
  LoessPlan(size_t n, size_t span, const loess_internal::Entry& entry);

  size_t size() const { return data_.n; }
  // How many series ApplyAcross smooths at once: the entry's lane count.
  size_t lanes() const { return data_.lanes; }

  // Smooths `values` (size() points) into `smoothed` (size() points, not
  // aliasing `values`).
  void Apply(std::span<const double> values, std::span<double> smoothed) const;

  // Smooths lanes() series of size() points each, stored interleaved: point
  // j of series l is values[j * stride + l], and its smoothed value goes to
  // smoothed[j * stride + l]. Needs stride >= lanes(); `smoothed` must not
  // overlap `values`.
  void ApplyAcross(const double* values, size_t stride, double* smoothed) const;

 private:
  const loess_internal::Entry* entry_;
  loess_internal::PlanData data_;
};

}  // namespace fbdetect

#endif  // FBDETECT_SRC_TSA_LOESS_H_
