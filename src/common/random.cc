#include "src/common/random.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace fbdetect {
namespace {

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : state_) {
    word = SplitMix64(sm);
  }
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::NextUint64(uint64_t bound) {
  FBD_CHECK(bound > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    const uint64_t r = NextUint64();
    if (r >= threshold) {
      return r % bound;
    }
  }
}

double Rng::NextDouble() {
  // 53 random mantissa bits -> uniform double in [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

double Rng::NextGaussian() {
  if (has_spare_gaussian_) {
    has_spare_gaussian_ = false;
    return spare_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 0.0);
  const double u2 = NextDouble();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * M_PI * u2;
  spare_gaussian_ = radius * std::sin(angle);
  has_spare_gaussian_ = true;
  return radius * std::cos(angle);
}

double Rng::Normal(double mean, double stddev) { return mean + stddev * NextGaussian(); }

double Rng::ClippedNormal(double mean, double stddev, double lo, double hi) {
  return std::clamp(Normal(mean, stddev), lo, hi);
}

bool Rng::NextBool(double probability_true) { return NextDouble() < probability_true; }

int Rng::Poisson(double mean) {
  FBD_CHECK(mean >= 0.0);
  if (mean == 0.0) {
    return 0;
  }
  if (mean > 64.0) {
    // Normal approximation keeps this O(1) for large means.
    const int draw = static_cast<int>(std::lround(Normal(mean, std::sqrt(mean))));
    return std::max(0, draw);
  }
  const double limit = std::exp(-mean);
  double product = NextDouble();
  int count = 0;
  while (product > limit) {
    ++count;
    product *= NextDouble();
  }
  return count;
}

}  // namespace fbdetect
