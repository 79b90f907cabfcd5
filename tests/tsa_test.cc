#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <span>
#include <vector>

#include "src/common/random.h"
#include "src/stats/descriptive.h"
#include "src/tsa/cusum.h"
#include "src/tsa/dp_changepoint.h"
#include "src/tsa/e_divisive.h"
#include "src/tsa/em_changepoint.h"
#include "src/tsa/loess.h"
#include "src/tsa/loess_kernels.h"
#include "src/tsa/sax.h"
#include "src/tsa/stl.h"
#include "tests/kernel_oracles.h"

namespace fbdetect {
namespace {

// ---------------------------------------------------------------------------
// SAX.
// ---------------------------------------------------------------------------

TEST(SaxTest, PaperExampleAbcdcba) {
  // §5.2.2: [1.1, 2.0, 3.1, 4.2, 3.5, 2.3, 1.1] with four buckets where 'a'
  // is [1, 2) etc. encodes as "abcdcba". Reference [1, 5) gives those exact
  // bucket edges with 4 buckets... our encoder derives the range from data
  // (min 1.1, max 4.2), so supply an explicit reference spanning [1.0, 5.0).
  const std::vector<double> reference = {1.0, 2.0, 3.0, 4.0, 4.9999};
  SaxConfig config;
  config.num_buckets = 4;
  const SaxEncoder encoder(reference, config);
  const std::vector<double> series = {1.1, 2.0, 3.1, 4.2, 3.5, 2.3, 1.1};
  EXPECT_EQ(encoder.EncodeSeries(series), "abcdcba");
}

TEST(SaxTest, ValuesOutsideRangeClampToEdgeBuckets) {
  const std::vector<double> reference = {0.0, 10.0};
  SaxConfig config;
  config.num_buckets = 5;
  const SaxEncoder encoder(reference, config);
  EXPECT_EQ(encoder.Encode(-100.0), 'a');
  EXPECT_EQ(encoder.Encode(100.0), 'e');
}

TEST(SaxTest, ConstantReferenceCollapsesToOneBucket) {
  const std::vector<double> reference(10, 3.0);
  const SaxEncoder encoder(reference, SaxConfig{});
  EXPECT_EQ(encoder.Encode(3.0), 'a');
  EXPECT_EQ(encoder.Encode(-5.0), 'a');
  EXPECT_EQ(encoder.num_buckets(), 1);
}

// Property: encoding is monotone — larger values never map to smaller letters.
class SaxMonotonicityTest : public ::testing::TestWithParam<int> {};

TEST_P(SaxMonotonicityTest, EncodingIsMonotone) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  std::vector<double> reference;
  for (int i = 0; i < 200; ++i) {
    reference.push_back(rng.Normal(0.0, 5.0));
  }
  SaxConfig config;
  config.num_buckets = 20;
  const SaxEncoder encoder(reference, config);
  double previous = -100.0;
  for (double v = -100.0; v <= 100.0; v += 0.5) {
    EXPECT_GE(encoder.Encode(v), encoder.Encode(previous));
    previous = v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SaxMonotonicityTest, ::testing::Values(1, 2, 3, 4));

// ---------------------------------------------------------------------------
// Loess / STL.
// ---------------------------------------------------------------------------

TEST(LoessTest, ReproducesLineExactly) {
  std::vector<double> values;
  for (int i = 0; i < 50; ++i) {
    values.push_back(2.0 + 0.3 * static_cast<double>(i));
  }
  std::vector<double> smoothed(values.size());
  LoessPlan(values.size(), 11).Apply(values, smoothed);
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR(smoothed[i], values[i], 1e-9);
  }
}

TEST(LoessTest, SmoothsNoise) {
  Rng rng(11);
  std::vector<double> values;
  for (int i = 0; i < 200; ++i) {
    values.push_back(5.0 + rng.Normal(0.0, 1.0));
  }
  std::vector<double> smoothed(values.size());
  LoessPlan(values.size(), 41).Apply(values, smoothed);
  EXPECT_LT(SampleVariance(smoothed), SampleVariance(values) / 4.0);
}

TEST(LoessTest, HandlesDegenerateInputs) {
  LoessPlan(0, 5).Apply({}, {});  // Nothing to read or write.
  std::vector<double> one(1, 0.0);
  LoessPlan(1, 5).Apply(std::vector<double>{7.0}, one);
  EXPECT_EQ(one, (std::vector<double>{7.0}));
}

TEST(StlTest, ComponentsSumToInput) {
  Rng rng(12);
  std::vector<double> values;
  const size_t period = 24;
  for (size_t i = 0; i < period * 10; ++i) {
    values.push_back(10.0 + 0.01 * static_cast<double>(i) +
                     2.0 * std::sin(2.0 * M_PI * static_cast<double>(i) / period) +
                     rng.Normal(0.0, 0.2));
  }
  const Decomposition stl = StlDecompose(values, period);
  ASSERT_TRUE(stl.valid);
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR(stl.seasonal[i] + stl.trend[i] + stl.residual[i], values[i], 1e-9);
  }
}

TEST(StlTest, RecoversSeasonalAmplitude) {
  std::vector<double> values;
  const size_t period = 12;
  for (size_t i = 0; i < period * 20; ++i) {
    values.push_back(5.0 + 3.0 * std::sin(2.0 * M_PI * static_cast<double>(i) / period));
  }
  const Decomposition stl = StlDecompose(values, period);
  ASSERT_TRUE(stl.valid);
  // Interior seasonal component should reach close to +-3.
  const std::span<const double> interior(stl.seasonal.data() + period * 2,
                                         stl.seasonal.size() - period * 4);
  EXPECT_GT(Max(interior), 2.5);
  EXPECT_LT(Min(interior), -2.5);
  // Residual should be small in the interior.
  const std::span<const double> res(stl.residual.data() + period * 2,
                                    stl.residual.size() - period * 4);
  EXPECT_LT(SampleStdDev(res), 0.5);
}

TEST(StlTest, TooShortSeriesIsInvalid) {
  const std::vector<double> values(10, 1.0);
  const Decomposition stl = StlDecompose(values, 12);
  EXPECT_FALSE(stl.valid);
  // Everything stays in trend.
  EXPECT_EQ(stl.trend, values);
}

TEST(StlTest, TrendFollowsLevelShiftSmoothly) {
  std::vector<double> values;
  const size_t period = 8;
  for (size_t i = 0; i < period * 16; ++i) {
    const double level = i < period * 8 ? 1.0 : 2.0;
    values.push_back(level + 0.3 * std::sin(2.0 * M_PI * static_cast<double>(i) / period));
  }
  const Decomposition stl = StlDecompose(values, period);
  ASSERT_TRUE(stl.valid);
  EXPECT_LT(stl.trend[period * 2], 1.3);
  EXPECT_GT(stl.trend[period * 14], 1.7);
}

TEST(StlTest, DecompositionIsLinearInTheInput) {
  // Every STL step is an unweighted loess, a moving average or a
  // subtraction, so for a fixed (n, period) the trend and seasonal of
  // a*x + y equal a times those of x plus those of y, up to rounding. A
  // residual-weighted (robust) pass would break this by orders of magnitude
  // on inputs with spikes like these.
  Rng rng(41);
  for (int shape = 0; shape < 40; ++shape) {
    const size_t period = 2 + static_cast<size_t>(rng.NextUint64(100));
    const size_t n = 2 * period + static_cast<size_t>(rng.NextUint64(500));
    const double a = rng.Uniform(-3.0, 3.0);
    std::vector<double> x(n);
    std::vector<double> y(n);
    std::vector<double> combined(n);
    double scale = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double phase = 2.0 * M_PI * static_cast<double>(i) / static_cast<double>(period);
      x[i] = 5.0 + std::sin(phase) + rng.Normal(0.0, 0.3);
      y[i] = 0.01 * static_cast<double>(i) + 2.0 * std::cos(phase) + rng.Normal(0.0, 0.5);
      if (rng.NextBool(0.02)) {
        x[i] += 20.0;  // A spike a robustness pass would down-weight.
      }
      combined[i] = a * x[i] + y[i];
      scale = std::max({scale, std::fabs(a * x[i]), std::fabs(y[i]), std::fabs(combined[i])});
    }
    const Decomposition dx = StlDecompose(x, period);
    const Decomposition dy = StlDecompose(y, period);
    const Decomposition dc = StlDecompose(combined, period);
    ASSERT_TRUE(dx.valid && dy.valid && dc.valid) << "n=" << n << " period=" << period;
    double trend_error = 0.0;
    double seasonal_error = 0.0;
    for (size_t i = 0; i < n; ++i) {
      trend_error = std::max(trend_error, std::fabs(dc.trend[i] - (a * dx.trend[i] + dy.trend[i])));
      seasonal_error = std::max(
          seasonal_error, std::fabs(dc.seasonal[i] - (a * dx.seasonal[i] + dy.seasonal[i])));
    }
    EXPECT_LE(trend_error, 1e-12 * scale) << "n=" << n << " period=" << period;
    EXPECT_LE(seasonal_error, 1e-12 * scale) << "n=" << n << " period=" << period;
  }
}

bool SameBits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// A noisy seasonal ramp at a random power-of-two scale in [2^-20, 2^19];
// every third series also sits on an offset of 10^5.
std::vector<double> KernelInput(Rng& rng, size_t n, size_t c) {
  const double scale = std::ldexp(1.0, static_cast<int>(rng.NextUint64(40)) - 20);
  const double offset = c % 3 == 0 ? 1e5 : 0.0;
  const double period = 2.0 + static_cast<double>(rng.NextUint64(150));
  std::vector<double> values(n);
  for (size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i);
    values[i] = scale * (offset + 0.01 * x + std::sin(2.0 * M_PI * x / period) +
                         rng.Normal(0.0, 1.0));
  }
  return values;
}

// The production loess fits 2·W interior outputs and W edge points (with
// their mirrors) per pass, W lanes to a vector, and ApplyAcross smooths W
// interleaved series at once, lane l running series l's fit; but every
// output keeps its own sums in the oracle's order, so every entry agrees
// with the oracle bit for bit both ways. The cases cover span > n (clamped),
// span == n, span 2, every span from 0 to 20 (odd and even: W-wide edge
// groups, their remainders, and an even span's last left point, which has
// no mirror) and n = span - 3 .. span + 20, which leave every remainder of
// the W- and 2·W-wide interior groups and the W-wide edge groups. One plan
// per case and entry serves both applies.
TEST(LoessTest, MatchesTheOracleBitForBit) {
  Rng rng(23);
  std::vector<std::pair<size_t, size_t>> cases;  // (n, span)
  std::vector<size_t> spans = {75, 76, 145, 216, 217, 300};
  for (size_t span = 0; span <= 20; ++span) {
    spans.push_back(span);
  }
  for (size_t span : spans) {
    for (size_t n = span > 3 ? span - 3 : 1; n <= span + 20; ++n) {
      cases.emplace_back(n, span);
    }
  }
  while (cases.size() < 2400) {
    cases.emplace_back(1 + static_cast<size_t>(rng.NextUint64(1600)),
                       static_cast<size_t>(rng.NextUint64(301)));
  }
  std::vector<const loess_internal::Entry*> entries;
  for (const loess_internal::Entry& entry : loess_internal::CompiledEntries()) {
    if (entry.cpu_runs()) {
      entries.push_back(&entry);
    } else {
      std::printf("note: this CPU lacks the %s entry's ISA; it is not checked\n", entry.name);
    }
  }
  std::vector<double> smoothed;
  std::vector<double> interleaved;
  std::vector<double> interleaved_out;
  for (size_t c = 0; c < cases.size(); ++c) {
    const auto [n, span] = cases[c];
    const std::vector<double> values = KernelInput(rng, n, c);
    const std::vector<double> expected = oracle::LoessSmooth(values, span);
    // As many more series as the widest entry has lanes, for the
    // across-series apply, each with its own oracle smoothing; narrower
    // entries take the first ones.
    const size_t across_cases = c % 4 == 0 ? entries.back()->lanes : 0;
    std::vector<std::vector<double>> series;
    std::vector<std::vector<double>> series_expected;
    for (size_t l = 0; l < across_cases; ++l) {
      series.push_back(KernelInput(rng, n, c + l));
      series_expected.push_back(oracle::LoessSmooth(series.back(), span));
    }
    for (const loess_internal::Entry* entry : entries) {
      const LoessPlan plan(n, span, *entry);
      smoothed.assign(n, std::nan(""));
      plan.Apply(values, smoothed);
      EXPECT_TRUE(SameBits(smoothed, expected))
          << entry->name << " entry: n=" << n << " span=" << span << " case=" << c;
      if (across_cases == 0) {
        continue;
      }
      // Lanes `stride` apart with a spare column, which must stay untouched.
      const size_t lanes = plan.lanes();
      const size_t stride = lanes + 1;
      interleaved.assign(n * stride, -1.0);
      interleaved_out.assign(n * stride, -2.0);
      for (size_t j = 0; j < n; ++j) {
        for (size_t l = 0; l < lanes; ++l) {
          interleaved[j * stride + l] = series[l][j];
        }
      }
      plan.ApplyAcross(interleaved.data(), stride, interleaved_out.data());
      for (size_t l = 0; l < lanes; ++l) {
        std::vector<double> lane(n);
        for (size_t j = 0; j < n; ++j) {
          lane[j] = interleaved_out[j * stride + l];
        }
        EXPECT_TRUE(SameBits(lane, series_expected[l]))
            << entry->name << " entry across series: n=" << n << " span=" << span
            << " lane=" << l << " case=" << c;
      }
      for (size_t j = 0; j < n; ++j) {
        EXPECT_EQ(interleaved_out[j * stride + lanes], -2.0) << "spare column written, n=" << n;
      }
    }
  }
}

// The vector edge fits sum every weight, with no zero-weight skip. An edge
// point whose farthest neighbour is M away weighs it Tricube(M / (M + 1)),
// its smallest weight (division, cubing and 1 - x are monotone under
// rounding), and that is positive for every M up to 2^20, far past any
// window the detectors scan.
TEST(LoessTest, EveryEdgeWeightIsPositive) {
  for (size_t m = 0; m <= (size_t{1} << 20); ++m) {
    const double max_dist = static_cast<double>(m);
    ASSERT_GT(loess_internal::Tricube(max_dist / (max_dist + 1.0)), 0.0) << "M=" << m;
  }
}

// STL plans each loess shape once per decomposition and smooths the
// cycle-subseries in lanes across phases; its components stay bit-identical
// to the oracle's, including the invalid result for n < 2 * period. Fixed
// cases first: periods below 8 (fewer phases than one pass of lanes, or one
// pass and some left over), periods that are not a multiple of the lane
// count (phases left over, each smoothed alone), n % period != 0 (two
// subseries lengths, so two plans, each with its own leftover phases), and
// subseries shorter than the seasonal span of 7 (every point an edge point).
TEST(StlTest, MatchesTheOracleBitForBit) {
  std::vector<std::pair<size_t, size_t>> shapes;  // (n, period)
  for (size_t period = 2; period < 8; ++period) {
    shapes.emplace_back(2 * period, period);
    shapes.emplace_back(7 * period + 3 % period, period);
    shapes.emplace_back(40 * period + period - 1, period);
  }
  for (size_t period : {9, 12, 13, 17, 100, 143, 144, 145}) {
    shapes.emplace_back(2 * period + 1, period);      // Subseries of 2 and 3 points.
    shapes.emplace_back(6 * period + period / 2, period);  // 6 and 7 points.
    shapes.emplace_back(7 * period, period);          // All 7 points, n % period == 0.
    shapes.emplace_back(10 * period + 5, period);     // 10 and 11 points.
  }
  shapes.emplace_back(1500, 434);
  shapes.emplace_back(1500, 144);
  Rng rng(24);
  while (shapes.size() < 600) {
    const size_t c = shapes.size();
    const size_t period = 2 + static_cast<size_t>(rng.NextUint64(299));
    const size_t n = c % 8 == 0 ? 1 + static_cast<size_t>(rng.NextUint64(2 * period - 1))
                                : 2 * period + static_cast<size_t>(rng.NextUint64(1000));
    shapes.emplace_back(n, period);
  }
  for (size_t c = 0; c < shapes.size(); ++c) {
    const auto [n, period] = shapes[c];
    const std::vector<double> values = KernelInput(rng, n, c);
    const Decomposition fast = StlDecompose(values, period);
    const Decomposition slow = oracle::StlDecompose(values, period);
    EXPECT_EQ(fast.valid, slow.valid) << "n=" << n << " period=" << period;
    EXPECT_TRUE(SameBits(fast.seasonal, slow.seasonal) && SameBits(fast.trend, slow.trend) &&
                SameBits(fast.residual, slow.residual))
        << "n=" << n << " period=" << period << " case=" << c;
  }
}

TEST(MovingAverageTest, DecomposesSeasonalSeries) {
  std::vector<double> values;
  const size_t period = 6;
  for (size_t i = 0; i < period * 10; ++i) {
    values.push_back(4.0 + std::sin(2.0 * M_PI * static_cast<double>(i) / period));
  }
  const Decomposition ma = MovingAverageDecompose(values, period);
  ASSERT_TRUE(ma.valid);
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR(ma.seasonal[i] + ma.trend[i] + ma.residual[i], values[i], 1e-9);
  }
}

// ---------------------------------------------------------------------------
// CUSUM.
// ---------------------------------------------------------------------------

TEST(CusumTest, LocatesCleanStep) {
  std::vector<double> values(100, 1.0);
  for (size_t i = 60; i < 100; ++i) {
    values[i] = 2.0;
  }
  const CusumResult result = CusumLocate(values);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.change_point, 60u);
  EXPECT_DOUBLE_EQ(result.mean_before, 1.0);
  EXPECT_DOUBLE_EQ(result.mean_after, 2.0);
}

TEST(CusumTest, ConstantSeriesNotFound) {
  const std::vector<double> values(50, 3.0);
  EXPECT_FALSE(CusumLocate(values).found);
}

TEST(CusumTest, TooShortNotFound) {
  EXPECT_FALSE(CusumLocate(std::vector<double>{1.0, 2.0, 3.0}, 2).found);
}

TEST(CusumTest, PathEndsNearZero) {
  Rng rng(13);
  std::vector<double> values;
  for (int i = 0; i < 100; ++i) {
    values.push_back(rng.Normal(5.0, 1.0));
  }
  const std::vector<double> path = CusumPath(values);
  EXPECT_NEAR(path.back(), 0.0, 1e-9);  // Sum of deviations from the mean.
}

// ---------------------------------------------------------------------------
// CUSUM + EM iterative change-point detection.
// ---------------------------------------------------------------------------

struct EmCase {
  double magnitude;
  double noise;
  bool expect_found;
};

// Names each case by its fields in the test ids (the default printer dumps
// the struct's bytes, padding included).
void PrintTo(const EmCase& c, std::ostream* os) {
  *os << "magnitude=" << c.magnitude << " noise=" << c.noise
      << " expect_found=" << (c.expect_found ? "true" : "false");
}

class EmChangePointTest : public ::testing::TestWithParam<EmCase> {};

TEST_P(EmChangePointTest, FindsPlantedStepWhenDetectable) {
  const EmCase c = GetParam();
  Rng rng(14);
  std::vector<double> values;
  const size_t n = 200;
  const size_t planted = 120;
  for (size_t i = 0; i < n; ++i) {
    values.push_back(rng.Normal(i < planted ? 1.0 : 1.0 + c.magnitude, c.noise));
  }
  const ChangePoint result = DetectChangePoint(values);
  EXPECT_EQ(result.found, c.expect_found)
      << "magnitude=" << c.magnitude << " noise=" << c.noise;
  if (result.found && c.expect_found) {
    EXPECT_NEAR(static_cast<double>(result.index), static_cast<double>(planted), 8.0);
    EXPECT_GT(result.delta, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, EmChangePointTest,
                         ::testing::Values(EmCase{1.0, 0.1, true}, EmCase{0.5, 0.1, true},
                                           EmCase{0.2, 0.05, true}, EmCase{1.0, 0.5, true},
                                           EmCase{0.0, 0.1, false}));

TEST(EmChangePointTest, RespectsSignificanceLevel) {
  Rng rng(15);
  // Pure noise: across many trials, false positives should be rare at 0.01.
  int false_positives = 0;
  const int trials = 100;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> values;
    for (int i = 0; i < 100; ++i) {
      values.push_back(rng.Normal(0.0, 1.0));
    }
    if (DetectChangePoint(values).found) {
      ++false_positives;
    }
  }
  // The EM loop picks the best split, inflating the nominal level; it still
  // must reject the vast majority of pure-noise series.
  EXPECT_LT(false_positives, 30);
}

TEST(EmChangePointTest, ShortSeriesNotFound) {
  const std::vector<double> values = {1.0, 2.0, 1.0};
  EXPECT_FALSE(DetectChangePoint(values).found);
}

TEST(EmChangePointTest, ConvergesWithinBudget) {
  Rng rng(16);
  std::vector<double> values;
  for (int i = 0; i < 300; ++i) {
    values.push_back(rng.Normal(i < 150 ? 0.0 : 1.0, 0.3));
  }
  ChangePointConfig config;
  config.max_iterations = 50;
  const ChangePoint result = DetectChangePoint(values, config);
  ASSERT_TRUE(result.found);
  EXPECT_LE(result.iterations_used, 10);  // Should converge fast.
}

TEST(EmChangePointTest, LargeOffsetBaselineKeepsSplit) {
  // Catastrophic-cancellation regression test. SplitRss used the raw
  // Σx² − (Σx)²/n prefix form: at a counter-magnitude baseline offset the
  // two terms agree to ~all 53 bits and their difference is rounding noise,
  // so the EM E-step wandered off the true split (empirically, 29/30 seeds
  // diverged at offset 1e16 with this signal). RSS is shift-invariant, so
  // after centering at the grand mean the detected split must not depend on
  // the offset at all.
  const size_t n = 512;
  const size_t planted = 320;
  const double delta = 5e8;   // Step height.
  const double sigma = 2.5e8; // Noise scale: SNR 2, comfortably detectable.
  Rng rng(941);
  std::vector<double> noise;
  for (size_t i = 0; i < n; ++i) {
    noise.push_back(rng.Normal(0.0, sigma));
  }
  size_t index_at_zero = 0;
  for (const double offset : {0.0, 1e12, 1e16}) {
    std::vector<double> values(n);
    for (size_t i = 0; i < n; ++i) {
      values[i] = offset + (i < planted ? 0.0 : delta) + noise[i];
    }
    const ChangePoint result = DetectChangePoint(values);
    ASSERT_TRUE(result.found) << "offset=" << offset;
    if (offset == 0.0) {
      index_at_zero = result.index;
      EXPECT_NEAR(static_cast<double>(result.index), static_cast<double>(planted), 8.0);
    } else {
      // At offset 1e16 the values themselves quantize to ~2-ulp grid, which
      // may tip a near-tie between adjacent splits; allow 1 point of slack.
      EXPECT_NEAR(static_cast<double>(result.index), static_cast<double>(index_at_zero), 1.0)
          << "offset=" << offset;
    }
  }
}

// ---------------------------------------------------------------------------
// DP change-point search.
// ---------------------------------------------------------------------------

TEST(DpChangePointTest, SingleSplitMinimizesVariance) {
  std::vector<double> values(40, 0.0);
  for (size_t i = 25; i < 40; ++i) {
    values[i] = 10.0;
  }
  EXPECT_EQ(BestSingleSplit(values), 25u);
}

TEST(DpChangePointTest, TwoChangePoints) {
  std::vector<double> values;
  for (int i = 0; i < 30; ++i) {
    values.push_back(0.0);
  }
  for (int i = 0; i < 30; ++i) {
    values.push_back(5.0);
  }
  for (int i = 0; i < 30; ++i) {
    values.push_back(-3.0);
  }
  const Segmentation seg = DpSegment(values, 2);
  ASSERT_TRUE(seg.valid);
  ASSERT_EQ(seg.change_points.size(), 2u);
  EXPECT_EQ(seg.change_points[0], 30u);
  EXPECT_EQ(seg.change_points[1], 60u);
  EXPECT_NEAR(seg.total_cost, 0.0, 1e-9);
}

TEST(DpChangePointTest, InfeasibleSegmentationInvalid) {
  const std::vector<double> values = {1.0, 2.0, 3.0};
  EXPECT_FALSE(DpSegment(values, 3, 2).valid);
}

TEST(DpChangePointTest, ZeroChangesReturnsWholeSeriesCost) {
  const std::vector<double> values = {1.0, 3.0, 1.0, 3.0};
  const Segmentation seg = DpSegment(values, 0);
  ASSERT_TRUE(seg.valid);
  EXPECT_TRUE(seg.change_points.empty());
  EXPECT_NEAR(seg.total_cost, 4.0, 1e-9);  // Sum of squared deviations from 2.
}

TEST(DpChangePointTest, RespectsMinSegment) {
  std::vector<double> values(20, 0.0);
  values[19] = 100.0;  // Tempting split at 19 violates min_segment=5.
  const Segmentation seg = DpSegment(values, 1, 5);
  ASSERT_TRUE(seg.valid);
  EXPECT_GE(seg.change_points[0], 5u);
  EXPECT_LE(seg.change_points[0], 15u);
}

// ---------------------------------------------------------------------------
// E-divisive.
// ---------------------------------------------------------------------------

TEST(EDivisiveTest, LocatesCleanStep) {
  Rng rng(41);
  std::vector<double> values;
  const size_t planted = 70;
  for (size_t i = 0; i < 120; ++i) {
    values.push_back(rng.Normal(i < planted ? 0.0 : 1.0, 0.2));
  }
  const EDivisiveResult result = EDivisiveSingleSplit(values);
  ASSERT_TRUE(result.found);
  EXPECT_NEAR(static_cast<double>(result.index), static_cast<double>(planted), 4.0);
  EXPECT_GT(result.statistic, 0.0);
}

TEST(EDivisiveTest, DetectsVarianceChangeWithoutMeanShift) {
  // Energy distance reacts to any distributional change; a mean-based
  // detector is blind to this series (both halves have mean 0).
  Rng rng(42);
  std::vector<double> values;
  for (size_t i = 0; i < 200; ++i) {
    values.push_back(rng.Normal(0.0, i < 100 ? 0.1 : 1.5));
  }
  const EDivisiveResult result = EDivisiveSingleSplit(values);
  ASSERT_TRUE(result.found);
  EXPECT_NEAR(static_cast<double>(result.index), 100.0, 10.0);
}

TEST(EDivisiveTest, PureNoiseNotSignificant) {
  Rng rng(43);
  std::vector<double> values;
  for (size_t i = 0; i < 100; ++i) {
    values.push_back(rng.Normal(0.0, 1.0));
  }
  const EDivisiveResult result = EDivisiveSingleSplit(values);
  EXPECT_FALSE(result.found);
  EXPECT_GE(result.p_value, 0.01);
}

TEST(EDivisiveTest, ConstantSeriesNotFound) {
  const std::vector<double> values(64, 2.0);
  const EDivisiveResult result = EDivisiveSingleSplit(values);
  EXPECT_FALSE(result.found);
  EXPECT_EQ(result.index, 0u);
}

TEST(EDivisiveTest, DeterministicAcrossCalls) {
  // The permutation test uses a fixed seed: repeated calls must agree
  // bit-for-bit (the scan path's determinism contract).
  Rng rng(44);
  std::vector<double> values;
  for (size_t i = 0; i < 90; ++i) {
    values.push_back(rng.Normal(i < 45 ? 0.0 : 0.6, 0.3));
  }
  const EDivisiveResult first = EDivisiveSingleSplit(values);
  const EDivisiveResult second = EDivisiveSingleSplit(values);
  EXPECT_EQ(first.found, second.found);
  EXPECT_EQ(first.index, second.index);
  EXPECT_EQ(first.statistic, second.statistic);
  EXPECT_EQ(first.p_value, second.p_value);
}

}  // namespace
}  // namespace fbdetect
