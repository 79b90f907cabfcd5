// E-divisive single change-point detection (Matteson & James 2014), the
// detector family used by MongoDB's Hunter for CI performance regressions.
//
// The statistic is the sample energy distance between the two candidate
// segments: for a split at t with X = values[0, t) and Y = values[t, n),
//
//   E(X, Y) = 2/(mn) ΣΣ|x_i - y_j|
//             - 1/C(m,2) Σ_{i<k}|x_i - x_k| - 1/C(n,2) Σ_{j<l}|y_j - y_l|
//   Q(t)    = (mn / (m+n)) * E(X, Y)
//
// which is zero in distribution-equality and positive under any
// distributional change (not just mean shifts). The best split maximizes
// Q(t); significance comes from a permutation test: the observed maximum is
// ranked against the maxima of deterministic reshuffles of the series, so
// the p-value is exact, distribution-free, and reproducible bit-for-bit for
// a fixed seed. The scan is O(n^2) via incremental cross/within-sum updates
// as the split advances; each permutation costs another O(n^2).
#ifndef FBDETECT_SRC_TSA_E_DIVISIVE_H_
#define FBDETECT_SRC_TSA_E_DIVISIVE_H_

#include <cstddef>
#include <span>

namespace fbdetect {

struct EDivisiveResult {
  bool found = false;    // Significant at level 0.01.
  size_t index = 0;      // First element of the post-change segment.
  double statistic = 0;  // Q at the best split.
  double p_value = 1.0;  // Permutation p-value, floored at 1/(R+1).
};

// Locates and tests the single best energy-distance split, with at least 4
// points on each side and R = 199 permutations. Returns found=false when the
// series is too short, constant, or the permutation test does not reject at
// level 0.01. Deterministic for fixed values.
EDivisiveResult EDivisiveSingleSplit(std::span<const double> values);

}  // namespace fbdetect

#endif  // FBDETECT_SRC_TSA_E_DIVISIVE_H_
