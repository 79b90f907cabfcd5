#include "src/tsa/e_divisive.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/common/random.h"

namespace fbdetect {
namespace {

constexpr size_t kMinSegment = 4;            // Minimum points on each side of the split.
constexpr double kSignificanceLevel = 0.01;  // Permutation-test level.
// Number of permutations R; the attainable p-value floor is 1/(R+1), so R
// must satisfy 1/(R+1) < kSignificanceLevel for detection to be possible.
constexpr int kPermutations = 199;
// Fixed seed for the permutation shuffles: repeated calls on the same data
// return identical results (the determinism contract of the scan path).
constexpr uint64_t kSeed = 0x0fbde71f5ULL;

// Max of Q(t) over admissible splits, computed in O(n^2) by sliding the
// split left-to-right and updating the between/within absolute-difference
// sums incrementally as each point changes sides. Returns 0 when no
// admissible split exists or the series is constant.
double MaxEnergySplit(std::span<const double> values, size_t* best_index) {
  const size_t n = values.size();
  if (best_index != nullptr) {
    *best_index = 0;
  }
  if (n < 2 * kMinSegment) {
    return 0.0;
  }

  // Total pairwise |x_i - x_j| via the sorted-order identity
  //   Σ_{i<j} |x_i - x_j| = Σ_i (2i - n + 1) * x_(i)
  // (O(n log n), exact up to rounding).
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  double total_pairs = 0.0;
  for (size_t i = 0; i < n; ++i) {
    total_pairs += (2.0 * static_cast<double>(i) - static_cast<double>(n) + 1.0) * sorted[i];
  }

  // Split state at t = 1: X = {values[0]}, Y = the rest.
  double within_x = 0.0;
  double between = 0.0;
  for (size_t j = 1; j < n; ++j) {
    between += std::fabs(values[0] - values[j]);
  }
  double within_y = total_pairs - between;

  double best_q = 0.0;
  for (size_t t = 1; t + kMinSegment <= n; ++t) {
    if (t >= kMinSegment) {
      const double m = static_cast<double>(t);
      const double k = static_cast<double>(n - t);
      const double energy = 2.0 * between / (m * k) - 2.0 * within_x / (m * (m - 1.0)) -
                            2.0 * within_y / (k * (k - 1.0));
      const double q = (m * k / (m + k)) * energy;
      if (q > best_q) {
        best_q = q;
        if (best_index != nullptr) {
          *best_index = t;
        }
      }
    }
    // Advance: values[t] moves from Y to X.
    const double v = values[t];
    double sum_x = 0.0;
    for (size_t i = 0; i < t; ++i) {
      sum_x += std::fabs(v - values[i]);
    }
    double sum_y = 0.0;
    for (size_t j = t + 1; j < n; ++j) {
      sum_y += std::fabs(v - values[j]);
    }
    within_x += sum_x;
    within_y -= sum_y;
    between += sum_y - sum_x;
  }
  return best_q;
}

}  // namespace

EDivisiveResult EDivisiveSingleSplit(std::span<const double> values) {
  EDivisiveResult result;
  const size_t n = values.size();
  if (n < 2 * kMinSegment) {
    return result;
  }

  size_t best_index = 0;
  const double observed = MaxEnergySplit(values, &best_index);
  if (!(observed > 0.0) || best_index == 0) {
    return result;  // Constant (all distances zero) or no admissible split.
  }
  result.index = best_index;
  result.statistic = observed;

  // Permutation test with a sequential early stop: once the exceedance count
  // can no longer produce p < alpha, further permutations cannot change the
  // verdict and only refine an already-insignificant p. The stop rule
  // depends only on the deterministic shuffle sequence, so results stay
  // bit-for-bit reproducible.
  const int reject_count = static_cast<int>(
      std::ceil(kSignificanceLevel * static_cast<double>(kPermutations + 1)));
  Rng rng(kSeed);
  std::vector<double> shuffled(values.begin(), values.end());
  int exceedances = 0;
  int performed = 0;
  for (int r = 0; r < kPermutations; ++r) {
    for (size_t i = n - 1; i > 0; --i) {
      const size_t j = static_cast<size_t>(rng.NextUint64(static_cast<uint64_t>(i + 1)));
      std::swap(shuffled[i], shuffled[j]);
    }
    ++performed;
    if (MaxEnergySplit(shuffled, nullptr) >= observed) {
      ++exceedances;
      if (exceedances >= reject_count) {
        break;  // p >= alpha is already certain.
      }
    }
  }
  result.p_value = (1.0 + static_cast<double>(exceedances)) /
                   (1.0 + static_cast<double>(performed));
  result.found = result.p_value < kSignificanceLevel;
  return result;
}

}  // namespace fbdetect
