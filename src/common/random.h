// Deterministic random number generation for simulations.
//
// Every stochastic component of the repository draws from an explicitly
// seeded Rng so that experiments reproduce bit-for-bit. The generator is
// xoshiro256** seeded via SplitMix64, which gives high-quality streams from
// arbitrary 64-bit seeds and is much faster than std::mt19937_64.
#ifndef FBDETECT_SRC_COMMON_RANDOM_H_
#define FBDETECT_SRC_COMMON_RANDOM_H_

#include <cstdint>

namespace fbdetect {

// SplitMix64 step; used for seeding and for cheap stateless hashing.
uint64_t SplitMix64(uint64_t& state);

class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Uniform over the full 64-bit range.
  uint64_t NextUint64();

  // Uniform in [0, bound). bound must be > 0.
  uint64_t NextUint64(uint64_t bound);

  // Uniform in [0, 1).
  double NextDouble();

  // Uniform in [lo, hi).
  double Uniform(double lo, double hi);

  // Standard normal via Box–Muller (cached spare value).
  double NextGaussian();

  // Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  // Normal clipped to [lo, hi] (resamples the tails by clamping, matching the
  // paper's "capping sample values within [0, 1]" methodology in §2).
  double ClippedNormal(double mean, double stddev, double lo, double hi);

  // Bernoulli trial.
  bool NextBool(double probability_true);

  // Poisson-distributed count (Knuth for small means, normal approx above 64).
  int Poisson(double mean);

 private:
  uint64_t state_[4];
  double spare_gaussian_ = 0.0;
  bool has_spare_gaussian_ = false;
};

}  // namespace fbdetect

#endif  // FBDETECT_SRC_COMMON_RANDOM_H_
