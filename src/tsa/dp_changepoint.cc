#include "src/tsa/dp_changepoint.h"

#include <limits>

namespace fbdetect {
namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

// Precomputed prefix sums for O(1) segment cost: cost of [lo, hi) under a
// constant-mean model is sq - sum^2 / len. Values are centered at the grand
// mean first — segment costs are shift-invariant, and the centered form
// avoids the catastrophic cancellation the raw Σx² − (Σx)²/n suffers on
// large-offset data (the SplitRss lesson in em_changepoint.cc).
struct Prefix {
  std::vector<double> sum;
  std::vector<double> sq;

  explicit Prefix(std::span<const double> values)
      : sum(values.size() + 1, 0.0), sq(values.size() + 1, 0.0) {
    double total = 0.0;
    for (double v : values) {
      total += v;
    }
    const double grand_mean =
        values.empty() ? 0.0 : total / static_cast<double>(values.size());
    for (size_t i = 0; i < values.size(); ++i) {
      const double centered = values[i] - grand_mean;
      sum[i + 1] = sum[i] + centered;
      sq[i + 1] = sq[i] + centered * centered;
    }
  }

  double SegmentCost(size_t lo, size_t hi) const {
    const double len = static_cast<double>(hi - lo);
    if (len <= 0.0) {
      return 0.0;
    }
    const double s = sum[hi] - sum[lo];
    const double q = sq[hi] - sq[lo];
    const double cost = q - s * s / len;
    return cost < 0.0 ? 0.0 : cost;  // Clamp rounding noise.
  }
};

}  // namespace

Segmentation DpSegment(std::span<const double> values, size_t num_changes, size_t min_segment) {
  Segmentation result;
  const size_t n = values.size();
  if (min_segment < 1) {
    min_segment = 1;
  }
  const size_t num_segments = num_changes + 1;
  if (n < num_segments * min_segment || num_changes == 0) {
    if (num_changes == 0 && n >= min_segment) {
      const Prefix prefix(values);
      result.total_cost = prefix.SegmentCost(0, n);
      result.valid = true;
    }
    return result;
  }

  const Prefix prefix(values);
  // dp[k][t] = min cost of covering [0, t) with k+1 segments.
  // parent[k][t] = split producing that optimum.
  std::vector<std::vector<double>> dp(num_segments, std::vector<double>(n + 1, kInfinity));
  std::vector<std::vector<size_t>> parent(num_segments, std::vector<size_t>(n + 1, 0));
  for (size_t t = min_segment; t <= n; ++t) {
    dp[0][t] = prefix.SegmentCost(0, t);
  }
  for (size_t k = 1; k < num_segments; ++k) {
    for (size_t t = (k + 1) * min_segment; t <= n; ++t) {
      for (size_t s = k * min_segment; s + min_segment <= t; ++s) {
        if (dp[k - 1][s] == kInfinity) {
          continue;
        }
        const double cost = dp[k - 1][s] + prefix.SegmentCost(s, t);
        if (cost < dp[k][t]) {
          dp[k][t] = cost;
          parent[k][t] = s;
        }
      }
    }
  }
  if (dp[num_segments - 1][n] == kInfinity) {
    return result;
  }
  result.total_cost = dp[num_segments - 1][n];
  result.change_points.resize(num_changes);
  size_t t = n;
  for (size_t k = num_segments - 1; k >= 1; --k) {
    t = parent[k][t];
    result.change_points[k - 1] = t;
  }
  result.valid = true;
  return result;
}

size_t BestSingleSplit(std::span<const double> values, size_t min_segment) {
  const Segmentation seg = DpSegment(values, 1, min_segment);
  return seg.valid ? seg.change_points[0] : 0;
}

}  // namespace fbdetect
