#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/common/random.h"
#include "src/stats/correlation.h"
#include "src/stats/descriptive.h"
#include "src/stats/distributions.h"
#include "src/stats/fourier.h"
#include "src/stats/hypothesis.h"
#include "src/stats/linreg.h"
#include "src/stats/text.h"
#include "src/stats/trend.h"
#include "tests/kernel_oracles.h"

namespace fbdetect {
namespace {

// ---------------------------------------------------------------------------
// Descriptive statistics.
// ---------------------------------------------------------------------------

TEST(DescriptiveTest, MeanAndVariance) {
  const std::vector<double> values = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(Mean(values), 5.0);
  EXPECT_NEAR(SampleVariance(values), 4.0 * 8.0 / 7.0, 1e-12);
}

TEST(DescriptiveTest, EmptyInputsReturnZero) {
  const std::vector<double> empty;
  EXPECT_EQ(Mean(empty), 0.0);
  EXPECT_EQ(SampleVariance(empty), 0.0);
  EXPECT_EQ(Median(empty), 0.0);
  EXPECT_EQ(Percentile(empty, 90.0), 0.0);
  EXPECT_EQ(MedianAbsoluteDeviation(empty, true), 0.0);
  EXPECT_EQ(Min(empty), 0.0);
  EXPECT_EQ(Max(empty), 0.0);
}

TEST(DescriptiveTest, MedianOddEven) {
  EXPECT_DOUBLE_EQ(Median(std::vector<double>{3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median(std::vector<double>{4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(DescriptiveTest, PercentileInterpolates) {
  const std::vector<double> values = {10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(Percentile(values, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 50.0), 25.0);
}

TEST(DescriptiveTest, SinglePointPercentile) {
  const std::vector<double> one = {42.0};
  EXPECT_DOUBLE_EQ(Percentile(one, 10.0), 42.0);
  EXPECT_DOUBLE_EQ(Percentile(one, 99.0), 42.0);
}

TEST(DescriptiveTest, PercentileIgnoresNonFiniteValues) {
  const std::vector<double> values = {10.0,
                                      std::numeric_limits<double>::quiet_NaN(),
                                      20.0,
                                      std::numeric_limits<double>::infinity(),
                                      30.0,
                                      -std::numeric_limits<double>::infinity(),
                                      40.0};
  EXPECT_DOUBLE_EQ(Percentile(values, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 50.0), 25.0);
  const std::vector<double> all_bad = {std::numeric_limits<double>::quiet_NaN(),
                                       std::numeric_limits<double>::infinity()};
  EXPECT_EQ(Percentile(all_bad, 50.0), 0.0);
}

// Percentile as it was before selection: sort the finite copy, then
// interpolate between the order statistics at floor(rank) and the next.
double PercentileBySort(std::span<const double> values, double p) {
  std::vector<double> sorted;
  for (const double v : values) {
    if (std::isfinite(v)) {
      sorted.push_back(v);
    }
  }
  if (sorted.empty()) {
    return 0.0;
  }
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) {
    return sorted[0];
  }
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

// Selecting the two order statistics gives the sort form's result bit for
// bit, on inputs with many duplicates and with NaN and infinities mixed in.
// With signed zeros in the input the sort may place -0.0 and 0.0 either way
// round, so there the two only compare equal.
TEST(DescriptiveTest, PercentileSelectionMatchesTheSortForm) {
  Rng rng(31);
  const double kPercents[] = {0.0, 25.0, 50.0, 90.0, 95.0, 100.0};
  for (int c = 0; c < 400; ++c) {
    const size_t n = 1 + static_cast<size_t>(rng.NextUint64(c % 4 == 0 ? 8 : 1500));
    const bool signed_zeros = c % 5 == 0;
    const int distinct = 1 + static_cast<int>(rng.NextUint64(c % 2 == 0 ? 6 : 1000));
    std::vector<double> values(n);
    for (double& v : values) {
      v = static_cast<double>(static_cast<int>(rng.NextUint64(distinct)) - distinct / 2) * 0.25;
      if (!signed_zeros && v == 0.0) {
        v = 0.5;
      }
      if (signed_zeros && v == 0.0 && rng.NextBool(0.5)) {
        v = -0.0;
      }
      if (rng.NextBool(0.03)) {
        v = std::numeric_limits<double>::quiet_NaN();
      } else if (rng.NextBool(0.01)) {
        v = rng.NextBool(0.5) ? std::numeric_limits<double>::infinity()
                              : -std::numeric_limits<double>::infinity();
      }
    }
    for (const double p : kPercents) {
      const double expected = PercentileBySort(values, p);
      const double actual = Percentile(values, p);
      if (signed_zeros) {
        EXPECT_EQ(actual, expected) << "case " << c << " n=" << n << " p=" << p;
      } else {
        EXPECT_EQ(std::bit_cast<uint64_t>(actual), std::bit_cast<uint64_t>(expected))
            << "case " << c << " n=" << n << " p=" << p;
      }
    }
  }
}

TEST(DescriptiveTest, MadRobustToOutlier) {
  const std::vector<double> values = {1.0, 1.1, 0.9, 1.05, 0.95, 100.0};
  const double mad = MedianAbsoluteDeviation(values, /*normalized=*/false);
  EXPECT_LT(mad, 0.2);  // The single outlier barely moves the MAD.
  EXPECT_NEAR(MedianAbsoluteDeviation(values, true), mad * 1.4826, 1e-12);
}

TEST(DescriptiveTest, HasNonFinite) {
  EXPECT_FALSE(HasNonFinite(std::vector<double>{1.0, 2.0}));
  EXPECT_TRUE(HasNonFinite(std::vector<double>{1.0, std::nan("")}));
  EXPECT_TRUE(HasNonFinite(std::vector<double>{1.0, INFINITY}));
}

// ---------------------------------------------------------------------------
// Distributions.
// ---------------------------------------------------------------------------

TEST(DistributionsTest, NormalCdfKnownValues) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(1.96), 0.9750021, 1e-5);
  EXPECT_NEAR(NormalCdf(-1.96), 0.0249979, 1e-5);
}

TEST(DistributionsTest, ChiSquaredKnownValues) {
  // chi2(1): P(X <= 3.841) ~= 0.95; chi2(2): P(X <= 5.991) ~= 0.95.
  EXPECT_NEAR(ChiSquaredCdf(3.841, 1.0), 0.95, 1e-3);
  EXPECT_NEAR(ChiSquaredCdf(5.991, 2.0), 0.95, 1e-3);
  EXPECT_NEAR(ChiSquaredSurvival(6.635, 1.0), 0.01, 1e-3);
}

TEST(DistributionsTest, RegularizedGammaBoundaries) {
  EXPECT_DOUBLE_EQ(RegularizedGammaP(2.0, 0.0), 0.0);
  EXPECT_NEAR(RegularizedGammaP(1.0, 30.0), 1.0, 1e-10);
}

// ---------------------------------------------------------------------------
// Hypothesis tests.
// ---------------------------------------------------------------------------

TEST(HypothesisTest, WelchDetectsShiftedMeans) {
  Rng rng(2);
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 500; ++i) {
    a.push_back(rng.Normal(0.0, 1.0));
    b.push_back(rng.Normal(0.5, 1.0));
  }
  const TTestResult result = WelchTTest(a, b, 0.01);
  EXPECT_TRUE(result.significant);
  EXPECT_LT(result.p_value, 0.001);
}

TEST(HypothesisTest, WelchAcceptsEqualMeans) {
  Rng rng(3);
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 500; ++i) {
    a.push_back(rng.Normal(1.0, 1.0));
    b.push_back(rng.Normal(1.0, 1.0));
  }
  const TTestResult result = WelchTTest(a, b, 0.01);
  EXPECT_FALSE(result.significant);
}

TEST(HypothesisTest, WelchHandlesTinyGroups) {
  const std::vector<double> a = {1.0};
  const std::vector<double> b = {2.0, 3.0};
  EXPECT_FALSE(WelchTTest(a, b, 0.05).significant);
}

TEST(HypothesisTest, WelchConstantGroupsDifferentMeans) {
  const std::vector<double> a = {1.0, 1.0, 1.0};
  const std::vector<double> b = {2.0, 2.0, 2.0};
  EXPECT_TRUE(WelchTTest(a, b, 0.05).significant);
}

TEST(HypothesisTest, WelchConstantGroupsRoundingWobbleNotSignificant) {
  // Two constant groups whose levels differ by a ~1e-12 relative wobble:
  // rounding noise, not a regression. The old exact-equality degenerate path
  // called this significant with p = 0. Levels keep >= 3 trailing zero bits
  // in the significand so the 8-term iterative sums (and so the means and
  // variances) are exact and the groups are genuinely zero-variance.
  const double level = 1.0;
  const double wobbled = 1.0 + 0x1p-40;  // ~9.1e-13 relative.
  ASSERT_NE(level, wobbled);
  const std::vector<double> a(8, level);
  const std::vector<double> b(8, wobbled);
  const TTestResult result = WelchTTest(a, b, 0.05);
  EXPECT_FALSE(result.significant);
  EXPECT_EQ(result.p_value, 1.0);
}

TEST(HypothesisTest, WelchConstantGroupsRelativeToleranceScalesWithLevel) {
  // The floor is relative: at a 1e12 level (ns latencies) an 8-ulp gap is
  // ~1e-3 absolute and still must not be significant, while a genuine 1e-6
  // relative step must be. Offsets are multiples of 8 ulps so the constant
  // groups sum exactly (see the wobble test above).
  const double level = 1e12;
  const std::vector<double> a(8, level);
  const std::vector<double> b(8, level + 0x1p-10);  // 8 ulps at this scale.
  EXPECT_FALSE(WelchTTest(a, b, 0.05).significant);
  const std::vector<double> c(8, 1000001000000.0);  // 1e-6 real step.
  EXPECT_TRUE(WelchTTest(a, c, 0.05).significant);
}

TEST(HypothesisTest, LikelihoodRatioPerfectFitOneUlpStepNotSignificant) {
  // Perfect two-segment fit (rss1 == 0) with plateaus 1 ulp apart: the old
  // exact-equality path returned p = 0 for what is float noise.
  // Segment lengths are powers of two so the iterative segment sums (and
  // hence the segment means) are exact and rss1 is exactly zero.
  const double level = 3.0;
  const double wobbled = std::nextafter(level, 4.0);
  std::vector<double> values(16, level);
  for (size_t i = 8; i < values.size(); ++i) {
    values[i] = wobbled;
  }
  const LikelihoodRatioResult result = MeanShiftLikelihoodRatioTest(values, 8, 0.01);
  EXPECT_FALSE(result.significant);
  EXPECT_EQ(result.p_value, 1.0);
}

TEST(HypothesisTest, LikelihoodRatioPerfectFitRealStepStaysSignificant) {
  std::vector<double> values(20, 3.0);
  for (size_t i = 10; i < values.size(); ++i) {
    values[i] = 3.5;
  }
  const LikelihoodRatioResult result = MeanShiftLikelihoodRatioTest(values, 10, 0.01);
  EXPECT_TRUE(result.significant);
  EXPECT_EQ(result.p_value, 0.0);
}

TEST(HypothesisTest, LikelihoodRatioDetectsMeanShift) {
  Rng rng(4);
  std::vector<double> values;
  for (int i = 0; i < 100; ++i) {
    values.push_back(rng.Normal(i < 50 ? 0.0 : 1.0, 0.5));
  }
  const LikelihoodRatioResult result = MeanShiftLikelihoodRatioTest(values, 50, 0.01);
  EXPECT_TRUE(result.significant);
}

TEST(HypothesisTest, LikelihoodRatioAcceptsNoShift) {
  Rng rng(5);
  std::vector<double> values;
  for (int i = 0; i < 100; ++i) {
    values.push_back(rng.Normal(0.0, 0.5));
  }
  const LikelihoodRatioResult result = MeanShiftLikelihoodRatioTest(values, 50, 0.01);
  EXPECT_FALSE(result.significant);
}

TEST(HypothesisTest, LikelihoodRatioRejectsDegenerateSplit) {
  const std::vector<double> values = {1.0, 2.0, 3.0, 4.0};
  EXPECT_FALSE(MeanShiftLikelihoodRatioTest(values, 0, 0.01).significant);
  EXPECT_FALSE(MeanShiftLikelihoodRatioTest(values, 4, 0.01).significant);
}

// Property (Appendix A.2): the smallest detectable shift scales ~ sqrt(1/n).
// With the shift fixed, detection must turn on as n grows.
class DetectionThresholdLawTest : public ::testing::TestWithParam<int> {};

TEST_P(DetectionThresholdLawTest, MoreSamplesDetectSmallerShifts) {
  const int n = GetParam();
  Rng rng(1000 + static_cast<uint64_t>(n));
  const double shift = 0.2;  // sigma = 1.
  int detections = 0;
  const int trials = 30;
  for (int trial = 0; trial < trials; ++trial) {
    std::vector<double> a;
    std::vector<double> b;
    for (int i = 0; i < n; ++i) {
      a.push_back(rng.Normal(0.0, 1.0));
      b.push_back(rng.Normal(shift, 1.0));
    }
    if (WelchTTest(a, b, 0.01).significant) {
      ++detections;
    }
  }
  // Power grows with n: nearly never at n=10, nearly always at n=2000.
  if (n >= 2000) {
    EXPECT_GE(detections, trials - 2);
  }
  if (n <= 10) {
    EXPECT_LE(detections, trials / 3);
  }
}

INSTANTIATE_TEST_SUITE_P(SampleSizes, DetectionThresholdLawTest,
                         ::testing::Values(10, 100, 500, 2000, 5000));

// ---------------------------------------------------------------------------
// Trend statistics.
// ---------------------------------------------------------------------------

TEST(TrendTest, MannKendallDetectsIncreasingTrend) {
  std::vector<double> values;
  for (int i = 0; i < 40; ++i) {
    values.push_back(static_cast<double>(i) * 0.5);
  }
  const MannKendallResult result = MannKendallTest(values, 0.05);
  EXPECT_TRUE(result.significant);
  EXPECT_EQ(result.direction, TrendDirection::kIncreasing);
}

TEST(TrendTest, MannKendallDetectsDecreasingTrend) {
  std::vector<double> values;
  for (int i = 0; i < 40; ++i) {
    values.push_back(-static_cast<double>(i));
  }
  EXPECT_EQ(MannKendallTest(values, 0.05).direction, TrendDirection::kDecreasing);
}

TEST(TrendTest, MannKendallNoTrendOnNoise) {
  Rng rng(6);
  std::vector<double> values;
  for (int i = 0; i < 60; ++i) {
    values.push_back(rng.Normal(0.0, 1.0));
  }
  EXPECT_EQ(MannKendallTest(values, 0.01).direction, TrendDirection::kNone);
}

TEST(TrendTest, MannKendallAllTiesIsNoTrend) {
  const std::vector<double> values(20, 3.0);
  const MannKendallResult result = MannKendallTest(values, 0.05);
  EXPECT_FALSE(result.significant);
  EXPECT_EQ(result.direction, TrendDirection::kNone);
}

TEST(TrendTest, MannKendallShortInputNotSignificant) {
  EXPECT_FALSE(MannKendallTest(std::vector<double>{1.0, 2.0, 3.0}, 0.05).significant);
}

TEST(TheilSenTest, ExactOnPerfectLine) {
  std::vector<double> values;
  for (int i = 0; i < 25; ++i) {
    values.push_back(3.0 + 0.7 * static_cast<double>(i));
  }
  const TheilSenResult result = TheilSenEstimate(values);
  ASSERT_TRUE(result.valid);
  EXPECT_NEAR(result.slope, 0.7, 1e-12);
  EXPECT_NEAR(result.intercept, 3.0, 1e-12);
}

// Property: Theil-Sen stays accurate with up to ~25% outliers.
class TheilSenRobustnessTest : public ::testing::TestWithParam<int> {};

TEST_P(TheilSenRobustnessTest, RobustToOutliers) {
  const int num_outliers = GetParam();
  Rng rng(7);
  std::vector<double> values;
  for (int i = 0; i < 60; ++i) {
    values.push_back(1.0 + 0.5 * static_cast<double>(i) + rng.Normal(0.0, 0.05));
  }
  for (int k = 0; k < num_outliers; ++k) {
    values[rng.NextUint64(values.size())] += rng.Uniform(20.0, 50.0);
  }
  const TheilSenResult result = TheilSenEstimate(values);
  EXPECT_NEAR(result.slope, 0.5, 0.1) << "outliers=" << num_outliers;
}

INSTANTIATE_TEST_SUITE_P(OutlierCounts, TheilSenRobustnessTest, ::testing::Values(0, 3, 8, 15));

TEST(TheilSenTest, TooFewPointsInvalid) {
  EXPECT_FALSE(TheilSenEstimate(std::vector<double>{5.0}).valid);
}

// ---------------------------------------------------------------------------
// Correlation / seasonality.
// ---------------------------------------------------------------------------

TEST(CorrelationTest, PearsonPerfectPositive) {
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> y = {2.0, 4.0, 6.0, 8.0};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
}

TEST(CorrelationTest, PearsonAcceptsAliasedSpans) {
  // x and y may view one buffer; the bits match those over a separate copy.
  Rng rng(102);
  std::vector<double> x(33);
  for (double& v : x) {
    v = rng.Uniform(-100.0, 100.0);
  }
  const std::vector<double> copy = x;
  const double aliased = PearsonCorrelation(x, x);
  EXPECT_EQ(std::bit_cast<uint64_t>(aliased),
            std::bit_cast<uint64_t>(PearsonCorrelation(x, copy)));
  EXPECT_NEAR(aliased, 1.0, 1e-12);
}

TEST(CorrelationTest, PearsonPerfectNegative) {
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> y = {8.0, 6.0, 4.0, 2.0};
  EXPECT_NEAR(PearsonCorrelation(x, y), -1.0, 1e-12);
}

TEST(CorrelationTest, PearsonConstantSeriesIsZero) {
  const std::vector<double> x = {1.0, 1.0, 1.0};
  const std::vector<double> y = {1.0, 2.0, 3.0};
  EXPECT_EQ(PearsonCorrelation(x, y), 0.0);
}

TEST(CorrelationTest, PearsonWithNonFiniteInputIsZeroNotNan) {
  const std::vector<double> x = {1.0, std::numeric_limits<double>::quiet_NaN(), 3.0};
  const std::vector<double> y = {2.0, 4.0, 6.0};
  EXPECT_EQ(PearsonCorrelation(x, y), 0.0);
  const std::vector<double> inf = {1.0, std::numeric_limits<double>::infinity(), 3.0};
  EXPECT_EQ(PearsonCorrelation(inf, y), 0.0);
}

// Reference Pearson with every sum and centered moment accumulated into
// lane i % lanes, lanes combined as (l0 + l1) + (l2 + l3). lanes == 1 is a
// plain serial sum.
double LanePearson(const std::vector<double>& x, const std::vector<double>& y,
                   size_t lanes) {
  const auto combine = [](const double(&l)[4]) { return (l[0] + l[1]) + (l[2] + l[3]); };
  const size_t n = x.size();
  double sx[4] = {};
  double sy[4] = {};
  for (size_t i = 0; i < n; ++i) {
    sx[i % lanes] += x[i];
    sy[i % lanes] += y[i];
  }
  const double mx = combine(sx) / static_cast<double>(n);
  const double my = combine(sy) / static_cast<double>(n);
  double sxy[4] = {};
  double sxx[4] = {};
  double syy[4] = {};
  for (size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy[i % lanes] += dx * dy;
    sxx[i % lanes] += dx * dx;
    syy[i % lanes] += dy * dy;
  }
  return combine(sxy) / std::sqrt(combine(sxx) * combine(syy));
}

TEST(CorrelationTest, PearsonPinsFourLaneStripedReductionOrder) {
  // 1e16 and -1e16 share lane 0, so the striped sum of x is 6. A serial sum
  // loses the 1.0s added next to 1e16 and gets 3, which moves the bits of r.
  const std::vector<double> x = {1e16, 1.0, 1.0, 1.0, -1e16, 1.0, 1.0, 1.0};
  const std::vector<double> y = {1.0, 2.0, 3.0, 4.0, -1.0, -2.0, -3.0, -4.0};
  const double striped = LanePearson(x, y, 4);
  ASSERT_NE(std::bit_cast<uint64_t>(striped), std::bit_cast<uint64_t>(LanePearson(x, y, 1)));
  EXPECT_EQ(std::bit_cast<uint64_t>(PearsonCorrelation(x, y)),
            std::bit_cast<uint64_t>(striped));

  // Lengths that leave every possible partial last stripe.
  Rng rng(11);
  for (size_t n : {2, 3, 4, 5, 6, 7, 13, 100}) {
    std::vector<double> a(n);
    std::vector<double> b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = rng.Uniform(-100.0, 100.0);
      b[i] = rng.Uniform(-100.0, 100.0);
    }
    EXPECT_EQ(std::bit_cast<uint64_t>(PearsonCorrelation(a, b)),
              std::bit_cast<uint64_t>(LanePearson(a, b, 4)))
        << "n=" << n;
  }
}

TEST(CorrelationTest, AutocorrelationOfSinePeaksAtPeriod) {
  std::vector<double> values;
  const size_t period = 24;
  for (size_t i = 0; i < 240; ++i) {
    values.push_back(std::sin(2.0 * M_PI * static_cast<double>(i) / period));
  }
  EXPECT_GT(oracle::Autocorrelation(values, period), 0.9);
  EXPECT_LT(oracle::Autocorrelation(values, period / 2), -0.9);
}

bool SameBits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// The split-array FFT performs the std::complex transform's operations in
// the same order, so the autocovariance sums match the oracle bit for bit:
// across padded sizes 2 to 8,192, power-of-two scales 2^-30 to 2^30, with
// and without a large offset, and on a constant series.
TEST(FftKernelTest, AutocovarianceSumsMatchTheComplexOracleBitForBit) {
  Rng rng(22);
  std::vector<size_t> sizes = {1, 2, 3, 4, 5, 31, 32, 33, 63, 64, 65, 1024, 1500, 2048, 2049,
                               4096, 4100};
  while (sizes.size() < 520) {
    sizes.push_back(1 + static_cast<size_t>(rng.NextUint64(4100)));
  }
  for (size_t c = 0; c < sizes.size(); ++c) {
    const size_t n = sizes[c];
    const double scale = std::ldexp(1.0, static_cast<int>(rng.NextUint64(61)) - 30);
    const double offset = c % 2 == 0 ? 0.0 : 1e6;
    const size_t period = 2 + static_cast<size_t>(rng.NextUint64(200));
    std::vector<double> values(n);
    for (size_t i = 0; i < n; ++i) {
      const double phase = 2.0 * M_PI * static_cast<double>(i) / static_cast<double>(period);
      values[i] = scale * (offset + std::sin(phase) + rng.Normal(0.0, 1.0));
    }
    const size_t max_lag = c % 3 == 0 ? n / 3 : static_cast<size_t>(rng.NextUint64(n + 1));
    EXPECT_TRUE(SameBits(AutocovarianceSumsFft(values, max_lag),
                         oracle::AutocovarianceSumsFft(values, max_lag)))
        << "n=" << n << " scale=" << scale << " offset=" << offset << " max_lag=" << max_lag;
  }
  const std::vector<double> constant(700, 3.25);
  EXPECT_TRUE(SameBits(AutocovarianceSumsFft(constant, 300),
                       oracle::AutocovarianceSumsFft(constant, 300)));
}

// The FFT's plans are built once per padded size and shared by every
// thread. Four threads at once run interleaved sizes, each size's first use
// racing to build its plan, and every result still matches the oracle bit
// for bit.
TEST(FftKernelTest, SharedPlansMatchTheOracleAcrossThreads) {
  const std::vector<size_t> sizes = {1500, 3, 2049, 1500, 700, 3, 4100, 2049, 17, 1500, 33, 700};
  Rng rng(37);
  std::vector<std::vector<double>> inputs;
  std::vector<std::vector<double>> expected;
  for (size_t n : sizes) {
    std::vector<double> values(n);
    for (double& v : values) {
      v = 100.0 + rng.Normal(0.0, 3.0);
    }
    expected.push_back(oracle::AutocovarianceSumsFft(values, n / 3));
    inputs.push_back(std::move(values));
  }
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (size_t round = 0; round < 20; ++round) {
        for (size_t k = 0; k < sizes.size(); ++k) {
          const size_t c = (k + t * 3) % sizes.size();
          if (!SameBits(AutocovarianceSumsFft(inputs[c], sizes[c] / 3), expected[c])) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(mismatches.load(), 0u);
}

class SeasonalityDetectionTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SeasonalityDetectionTest, FindsPlantedPeriod) {
  const size_t period = GetParam();
  Rng rng(8);
  std::vector<double> values;
  for (size_t i = 0; i < period * 12; ++i) {
    values.push_back(std::sin(2.0 * M_PI * static_cast<double>(i) / period) +
                     rng.Normal(0.0, 0.15));
  }
  const SeasonalityEstimate estimate = DetectSeasonality(values, 4, period * 3, 0.3);
  ASSERT_TRUE(estimate.present);
  EXPECT_NEAR(static_cast<double>(estimate.period), static_cast<double>(period),
              static_cast<double>(period) * 0.15);
}

INSTANTIATE_TEST_SUITE_P(Periods, SeasonalityDetectionTest, ::testing::Values(12, 24, 48, 96));

TEST(SeasonalityDetectionTest, NoSeasonalityInWhiteNoise) {
  Rng rng(9);
  std::vector<double> values;
  for (int i = 0; i < 500; ++i) {
    values.push_back(rng.Normal(0.0, 1.0));
  }
  EXPECT_FALSE(DetectSeasonality(values, 4, 150, 0.3).present);
}

// ---------------------------------------------------------------------------
// Linear regression and Fourier features.
// ---------------------------------------------------------------------------

TEST(LinRegTest, ExactFitOnLine) {
  std::vector<double> values;
  for (int i = 0; i < 20; ++i) {
    values.push_back(5.0 - 0.25 * static_cast<double>(i));
  }
  const LinearFit fit = FitLine(values);
  ASSERT_TRUE(fit.valid);
  EXPECT_NEAR(fit.slope, -0.25, 1e-12);
  EXPECT_NEAR(fit.intercept, 5.0, 1e-12);
  EXPECT_NEAR(fit.rmse, 0.0, 1e-10);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-10);
}

TEST(LinRegTest, NoisyLineHasPositiveRmse) {
  Rng rng(10);
  std::vector<double> values;
  for (int i = 0; i < 100; ++i) {
    values.push_back(static_cast<double>(i) + rng.Normal(0.0, 2.0));
  }
  const LinearFit fit = FitLine(values);
  EXPECT_GT(fit.rmse, 1.0);
  EXPECT_NEAR(fit.slope, 1.0, 0.1);
}

TEST(FourierTest, MagnitudesVectorHasRequestedLength) {
  const std::vector<double> values = {1.0, 2.0, 1.0, 2.0, 1.0, 2.0};
  EXPECT_EQ(FourierMagnitudes(values, 4).size(), 4u);
  EXPECT_EQ(FourierMagnitudes({}, 4).size(), 4u);
}

// ---------------------------------------------------------------------------
// Text features.
// ---------------------------------------------------------------------------

TEST(TextTest, CosineSimilarityIdenticalIsOne) {
  EXPECT_NEAR(TextCosineSimilarity("FetchUserById", "fetch_user_by_id"), 1.0, 1e-9);
}

TEST(TextTest, CosineSimilarityDisjointIsZero) {
  EXPECT_EQ(TextCosineSimilarity("alpha beta", "gamma delta"), 0.0);
}

TEST(TextTest, CosineSimilarityPartialOverlap) {
  const double similarity = TextCosineSimilarity("tao client fetch", "tao server store");
  EXPECT_GT(similarity, 0.0);
  EXPECT_LT(similarity, 1.0);
}

// Fits `hasher` on the hashed grams of `corpus`, as SOMDedup fits on its
// fingerprints' grams.
void FitOnStrings(TfIdfHasher& hasher, const std::vector<std::string>& corpus) {
  std::vector<HashedGrams> grams(corpus.size());
  std::vector<const HashedGrams*> documents;
  for (size_t d = 0; d < corpus.size(); ++d) {
    HashGramsOf(corpus[d], grams[d]);
    documents.push_back(&grams[d]);
  }
  hasher.FitHashed(documents);
}

std::vector<double> EmbedString(const TfIdfHasher& hasher, std::string_view text) {
  HashedGrams grams;
  HashGramsOf(text, grams);
  std::vector<double> embedding(hasher.dimensions());
  hasher.EmbedHashed(grams, embedding);
  return embedding;
}

TEST(TextTest, TfIdfEmbedIsUnitNorm) {
  TfIdfHasher hasher(16);
  FitOnStrings(hasher, {"service/gcpu/sub_1", "service/gcpu/sub_2", "service/throughput"});
  const std::vector<double> embedding = EmbedString(hasher, "service/gcpu/sub_3");
  double norm = 0.0;
  for (double v : embedding) {
    norm += v * v;
  }
  EXPECT_NEAR(norm, 1.0, 1e-9);
}

TEST(TextTest, TfIdfSimilarStringsCloser) {
  TfIdfHasher hasher(32);
  FitOnStrings(hasher, {"svc/gcpu/sub_10", "svc/gcpu/sub_11", "svc/throughput/endpoint_1"});
  auto dot = [](const std::vector<double>& a, const std::vector<double>& b) {
    double sum = 0.0;
    for (size_t i = 0; i < a.size(); ++i) {
      sum += a[i] * b[i];
    }
    return sum;
  };
  const auto base = EmbedString(hasher, "svc/gcpu/sub_10");
  EXPECT_GT(dot(base, EmbedString(hasher, "svc/gcpu/sub_11")),
            dot(base, EmbedString(hasher, "svc/throughput/endpoint_1")));
}

TEST(TextTest, EmptyTermVectorSimilarityIsZero) {
  EXPECT_EQ(CosineSimilarity({}, BuildTermVector({"a"})), 0.0);
}

}  // namespace
}  // namespace fbdetect
