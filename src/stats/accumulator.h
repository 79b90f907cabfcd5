// Online (streaming) statistics.
//
// WelfordAccumulator maintains count/mean/M2 with Welford's numerically
// stable update and supports merging (Chan et al.), which the fleet
// aggregation path uses to combine per-server statistics without keeping all
// raw samples in memory.
#ifndef FBDETECT_SRC_STATS_ACCUMULATOR_H_
#define FBDETECT_SRC_STATS_ACCUMULATOR_H_

#include <cstdint>

namespace fbdetect {

class WelfordAccumulator {
 public:
  // Non-finite values are ignored (they would poison mean/M2 permanently)
  // and tallied in ignored_non_finite() instead.
  void Add(double value);

  // Merges another accumulator into this one (parallel-variance formula).
  void Merge(const WelfordAccumulator& other);

  // Accepted samples only; non-finite inputs are excluded.
  int64_t count() const { return count_; }
  int64_t ignored_non_finite() const { return ignored_non_finite_; }
  double mean() const { return mean_; }

  // Unbiased sample variance (n-1); 0.0 if fewer than 2 samples.
  double sample_variance() const;

  // Population variance (n); 0.0 if no samples.
  double population_variance() const;

  double min() const { return min_; }
  double max() const { return max_; }

 private:
  int64_t count_ = 0;
  int64_t ignored_non_finite_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace fbdetect

#endif  // FBDETECT_SRC_STATS_ACCUMULATOR_H_
