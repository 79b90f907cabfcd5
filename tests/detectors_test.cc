// Tests for the per-series detection stages: change-point stage, went-away
// detector, seasonality stage, threshold filter, long-term detector, and
// SameRegressionMerger.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <ostream>
#include <vector>

#include "src/common/random.h"
#include "src/core/change_point_stage.h"
#include "src/core/scan_view.h"
#include "src/core/long_term.h"
#include "src/core/same_regression_merger.h"
#include "src/core/seasonality_stage.h"
#include "src/core/threshold_filter.h"
#include "src/core/went_away.h"
#include "src/core/workload_config.h"
#include "src/tsdb/timeseries.h"
#include "tests/stage_helpers.h"

namespace fbdetect {
namespace {

constexpr Duration kTick = Minutes(10);

// Test config: 2-day history, 4h analysis, 2h extended at 10-minute ticks.
DetectionConfig TestConfig() {
  DetectionConfig config;
  config.threshold = 0.001;
  config.windows.historical = Days(2);
  config.windows.analysis = Hours(4);
  config.windows.extended = Hours(2);
  config.rerun_interval = Hours(2);
  return config;
}

// Builds a series from a level function over [0, total).
template <typename Fn>
TimeSeries BuildSeries(Duration total, double noise_sd, uint64_t seed, Fn level) {
  Rng rng(seed);
  TimeSeries series;
  for (TimePoint t = 0; t < total; t += kTick) {
    series.Append(t, level(t) + (noise_sd > 0.0 ? rng.Normal(0.0, noise_sd) : 0.0));
  }
  return series;
}

MetricId GcpuMetric() { return {"svc", MetricKind::kGcpu, "sub_7", ""}; }

// The scan's oriented view of `series` at the tick after its last point;
// `scratch` backs it for lower-is-worse kinds.
ScanView ViewOf(const TimeSeries& series, const DetectionConfig& config,
                std::vector<double>& scratch, MetricKind kind = MetricKind::kGcpu) {
  return OrientedView(series, series.end_time() + kTick, config.windows, kind, scratch);
}

// The change-point stage's candidate on `series`, materialized into the
// Regression the scan builds for a survivor.
std::optional<Regression> DetectOn(const TimeSeries& series, const DetectionConfig& config,
                                   const MetricId& metric = GcpuMetric()) {
  std::vector<double> scratch;
  const ScanView view = ViewOf(series, config, scratch, metric.kind);
  const std::optional<ScanCandidate> candidate = ChangePointStage(config).DetectCandidate(view);
  if (!candidate) {
    return std::nullopt;
  }
  return MaterializeRegression(metric, view, *candidate);
}

// ---------------------------------------------------------------------------
// ChangePointStage.
// ---------------------------------------------------------------------------

TEST(ChangePointStageTest, DetectsStepInAnalysisWindow) {
  const DetectionConfig config = TestConfig();
  const Duration total = config.windows.Total();
  const TimePoint step_at = total - Hours(4);  // Inside the analysis window.
  const TimeSeries series = BuildSeries(total, 0.001, 1, [&](TimePoint t) {
    return t >= step_at ? 0.060 : 0.050;
  });
  const auto regression = DetectOn(series, config);
  ASSERT_TRUE(regression.has_value());
  EXPECT_NEAR(static_cast<double>(regression->change_time), static_cast<double>(step_at),
              static_cast<double>(Hours(1)));
  EXPECT_NEAR(regression->delta, 0.010, 0.003);
  EXPECT_GT(regression->relative_delta, 0.1);
  EXPECT_FALSE(regression->long_term);
}

TEST(ChangePointStageTest, NoChangeNoDetection) {
  const DetectionConfig config = TestConfig();
  const Duration total = config.windows.Total();
  const TimeSeries series =
      BuildSeries(total, 0.001, 2, [](TimePoint) { return 0.05; });
  EXPECT_FALSE(DetectOn(series, config).has_value());
}

TEST(ChangePointStageTest, ImprovementIsNotRegression) {
  const DetectionConfig config = TestConfig();
  const Duration total = config.windows.Total();
  const TimePoint step_at = total - Hours(4);
  const TimeSeries series = BuildSeries(total, 0.001, 3, [&](TimePoint t) {
    return t >= step_at ? 0.040 : 0.050;  // CPU drops: an improvement.
  });
  EXPECT_FALSE(DetectOn(series, config).has_value());
}

TEST(ChangePointStageTest, ThroughputDropIsRegression) {
  const DetectionConfig config = TestConfig();
  const Duration total = config.windows.Total();
  const TimePoint step_at = total - Hours(4);
  const TimeSeries series = BuildSeries(total, 5.0, 4, [&](TimePoint t) {
    return t >= step_at ? 900.0 : 1000.0;
  });
  const auto regression = DetectOn(series, config, {"svc", MetricKind::kThroughput, "", ""});
  ASSERT_TRUE(regression.has_value());
  // Oriented delta is positive (regression-positive orientation).
  EXPECT_GT(regression->delta, 50.0);
}

TEST(ChangePointStageTest, StepInHistoricalContextRejected) {
  const DetectionConfig config = TestConfig();
  const Duration total = config.windows.Total();
  // Step 8 hours before the end of history — visible in the context tail but
  // outside the analysis window.
  const TimePoint step_at = total - Hours(4) - Hours(2) - Hours(8);
  const TimeSeries series = BuildSeries(total, 0.0005, 5, [&](TimePoint t) {
    return t >= step_at ? 0.058 : 0.050;
  });
  EXPECT_FALSE(DetectOn(series, config).has_value());
}

TEST(ChangePointStageTest, InsufficientDataRejected) {
  const DetectionConfig config = TestConfig();
  const TimeSeries series = BuildSeries(Hours(2), 0.001, 6, [](TimePoint) { return 0.05; });
  EXPECT_FALSE(DetectOn(series, config).has_value());
}

TEST(ChangePointStageTest, DefaultConfigIsExplicitCusumEm) {
  // The default stage must be indistinguishable from one explicitly
  // configured with kCusumEm — bit-identical candidate scalars.
  const DetectionConfig default_config = TestConfig();
  DetectionConfig explicit_config = TestConfig();
  explicit_config.change_point_detector = ChangePointDetector::kCusumEm;
  const Duration total = default_config.windows.Total();
  const TimePoint step_at = total - Hours(4);
  const TimeSeries series = BuildSeries(total, 0.001, 8, [&](TimePoint t) {
    return t >= step_at ? 0.058 : 0.050;
  });
  const auto a = DetectOn(series, default_config);
  const auto b = DetectOn(series, explicit_config);
  ASSERT_EQ(a.has_value(), b.has_value());
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->change_time, b->change_time);
  EXPECT_EQ(a->delta, b->delta);
  EXPECT_EQ(a->relative_delta, b->relative_delta);
  EXPECT_EQ(a->p_value, b->p_value);
}

TEST(ChangePointStageTest, AlternativeBackendsDetectStepInAnalysisWindow) {
  // Both detectors, not just the default, must drive the stage end to end on
  // an easy planted step.
  const Duration total = TestConfig().windows.Total();
  const TimePoint step_at = total - Hours(4);
  const TimeSeries series = BuildSeries(total, 0.001, 9, [&](TimePoint t) {
    return t >= step_at ? 0.060 : 0.050;
  });
  for (const ChangePointDetector detector :
       {ChangePointDetector::kCusumEm, ChangePointDetector::kEDivisive}) {
    DetectionConfig config = TestConfig();
    config.change_point_detector = detector;
    const auto regression = DetectOn(series, config);
    const int id = static_cast<int>(detector);
    ASSERT_TRUE(regression.has_value()) << "detector=" << id;
    EXPECT_NEAR(static_cast<double>(regression->change_time), static_cast<double>(step_at),
                static_cast<double>(Hours(2)))
        << "detector=" << id;
    EXPECT_NEAR(regression->delta, 0.010, 0.004) << "detector=" << id;
  }
}

// Property sweep: detectable step magnitudes produce detections with accurate
// change-point localization across noise levels.
struct StepCase {
  double step;
  double noise;
};

// Names each case by its fields in the test ids.
void PrintTo(const StepCase& c, std::ostream* os) {
  *os << "step=" << c.step << " noise=" << c.noise;
}

class ChangePointSweepTest : public ::testing::TestWithParam<StepCase> {};

TEST_P(ChangePointSweepTest, LocalizesStep) {
  const StepCase c = GetParam();
  const DetectionConfig config = TestConfig();
  const Duration total = config.windows.Total();
  const TimePoint step_at = total - Hours(3);
  const TimeSeries series = BuildSeries(total, c.noise, 7, [&](TimePoint t) {
    return t >= step_at ? 0.05 + c.step : 0.05;
  });
  const auto regression = DetectOn(series, config);
  ASSERT_TRUE(regression.has_value()) << "step=" << c.step << " noise=" << c.noise;
  EXPECT_NEAR(regression->delta, c.step, c.step * 0.5);
}

INSTANTIATE_TEST_SUITE_P(Steps, ChangePointSweepTest,
                         ::testing::Values(StepCase{0.01, 0.001}, StepCase{0.005, 0.001},
                                           StepCase{0.02, 0.005}, StepCase{0.001, 0.0001}));

// ---------------------------------------------------------------------------
// WentAwayDetector.
// ---------------------------------------------------------------------------

TEST(WentAwayTest, PersistentStepKept) {
  const DetectionConfig config = TestConfig();
  const Duration total = config.windows.Total();
  const TimePoint step_at = total - Hours(5);
  const TimeSeries series = BuildSeries(total, 0.001, 8, [&](TimePoint t) {
    return t >= step_at ? 0.060 : 0.050;
  });
  std::vector<double> scratch;
  const ScanView view = ViewOf(series, config, scratch);
  const auto candidate = ChangePointStage(config).DetectCandidate(view);
  ASSERT_TRUE(candidate.has_value());
  const WentAwayVerdict verdict = WentAwayDetector().Evaluate(view, *candidate, 144);
  EXPECT_TRUE(verdict.keep);
  EXPECT_FALSE(verdict.gone_away);
}

TEST(WentAwayTest, TransientSpikeFiltered) {
  const DetectionConfig config = TestConfig();
  const Duration total = config.windows.Total();
  // Spike starts inside the analysis window and fully recovers before the
  // series ends (the Figure 1(c) case, oriented).
  const TimePoint spike_start = total - Hours(5);
  const TimePoint spike_end = total - Hours(3);
  const TimeSeries series = BuildSeries(total, 0.001, 9, [&](TimePoint t) {
    return (t >= spike_start && t < spike_end) ? 0.065 : 0.050;
  });
  std::vector<double> scratch;
  const ScanView view = ViewOf(series, config, scratch);
  const auto candidate = ChangePointStage(config).DetectCandidate(view);
  if (!candidate.has_value()) {
    GTEST_SKIP() << "change point not flagged; nothing to filter";
  }
  const WentAwayVerdict verdict = WentAwayDetector().Evaluate(view, *candidate, 144);
  EXPECT_FALSE(verdict.keep);
  EXPECT_TRUE(verdict.gone_away);
}

TEST(WentAwayTest, Figure7RegressionAtEndDespiteHistoricalSpike) {
  // Fig. 7: history contains a short spike; the real regression starts near
  // the end. The SAX validity rule must ignore the spike's buckets (they hold
  // < 3% of historical points) and keep the terminal regression.
  const DetectionConfig config = TestConfig();
  const Duration total = config.windows.Total();
  const TimePoint spike_start = Hours(10);
  const TimePoint spike_end = Hours(11);  // 1h spike in 2 days of history: ~2%.
  const TimePoint regression_at = total - Hours(5);
  const TimeSeries series = BuildSeries(total, 0.0008, 10, [&](TimePoint t) {
    if (t >= spike_start && t < spike_end) {
      return 0.080;  // Historical spike, higher than the regression level.
    }
    return t >= regression_at ? 0.062 : 0.050;
  });
  std::vector<double> scratch;
  const ScanView view = ViewOf(series, config, scratch);
  const auto candidate = ChangePointStage(config).DetectCandidate(view);
  ASSERT_TRUE(candidate.has_value());
  const WentAwayVerdict verdict = WentAwayDetector().Evaluate(view, *candidate, 144);
  EXPECT_TRUE(verdict.keep);
}

TEST(WentAwayTest, GradualRampKeptViaLastingTrend) {
  const DetectionConfig config = TestConfig();
  const Duration total = config.windows.Total();
  const TimePoint ramp_start = total - Hours(6);
  const TimeSeries series = BuildSeries(total, 0.0005, 11, [&](TimePoint t) {
    if (t < ramp_start) {
      return 0.050;
    }
    const double progress =
        static_cast<double>(t - ramp_start) / static_cast<double>(Hours(6));
    return 0.050 + 0.012 * progress;
  });
  std::vector<double> scratch;
  const ScanView view = ViewOf(series, config, scratch);
  const auto candidate = ChangePointStage(config).DetectCandidate(view);
  ASSERT_TRUE(candidate.has_value());
  const WentAwayVerdict verdict = WentAwayDetector().Evaluate(view, *candidate, 144);
  EXPECT_TRUE(verdict.keep);
  EXPECT_TRUE(verdict.lasting_trend);
}

TEST(WentAwayTest, DecayingSpikeWithRecoveryTailFiltered) {
  const DetectionConfig config = TestConfig();
  const Duration total = config.windows.Total();
  const TimePoint spike_at = total - Hours(5);
  const TimeSeries series = BuildSeries(total, 0.0005, 12, [&](TimePoint t) {
    if (t < spike_at) {
      return 0.050;
    }
    // Exponential decay back to baseline.
    const double age = static_cast<double>(t - spike_at) / static_cast<double>(Hours(1));
    return 0.050 + 0.02 * std::exp(-age);
  });
  std::vector<double> scratch;
  const ScanView view = ViewOf(series, config, scratch);
  const auto candidate = ChangePointStage(config).DetectCandidate(view);
  if (!candidate.has_value()) {
    GTEST_SKIP() << "change point not flagged";
  }
  const WentAwayVerdict verdict = WentAwayDetector().Evaluate(view, *candidate, 144);
  EXPECT_FALSE(verdict.keep);
}

TEST(WentAwayTest, EmptyDataRejected) {
  const WentAwayVerdict verdict = WentAwayDetector().Evaluate(ScanView{}, ScanCandidate{}, 0);
  EXPECT_FALSE(verdict.keep);
}

// Boundary + robustness cases driven through the zero-copy Evaluate overload,
// where the ScanView and ScanCandidate can be constructed exactly.

// historical | analysis view over `data` with no extended window.
ScanView ManualView(const std::vector<double>& data, size_t historical_size) {
  ScanView view;
  view.full = data;
  view.historical_size = historical_size;
  view.analysis_size = data.size() - historical_size;
  view.extended_size = 0;
  return view;
}

TEST(WentAwayTest, ChangeAtFinalPointGivesSinglePointPostWindow) {
  // change_index == analysis.size() - 1: the post window is exactly one
  // point. Tail mean, percentiles, Mann-Kendall and Theil-Sen all run on that
  // single point; nothing may read past the span or divide by zero.
  Rng rng(20);
  std::vector<double> data;
  for (int i = 0; i < 288; ++i) {
    data.push_back(rng.Normal(0.050, 0.0005));
  }
  for (int i = 0; i < 35; ++i) {
    data.push_back(rng.Normal(0.050, 0.0005));
  }
  data.push_back(0.070);  // The series jumps at its very last point.
  const ScanView view = ManualView(data, 288);
  ScanCandidate candidate;
  candidate.change_index = view.analysis_plus_extended().size() - 1;
  candidate.baseline_mean = 0.050;
  candidate.regressed_mean = 0.070;
  candidate.delta = 0.020;
  candidate.relative_delta = 0.4;
  const WentAwayVerdict verdict = WentAwayDetector().Evaluate(view, candidate, 144);
  // The single elevated tail point has not recovered toward baseline.
  EXPECT_FALSE(verdict.gone_away);
}

TEST(WentAwayTest, SinglePointPostWindowAtBaselineGoesAway) {
  // Same boundary, but the lone post point sits at the baseline: the
  // recovery test must see it as gone away and the verdict must not keep it.
  Rng rng(21);
  std::vector<double> data;
  for (int i = 0; i < 288 + 35; ++i) {
    data.push_back(rng.Normal(0.050, 0.0005));
  }
  data.push_back(0.050);
  const ScanView view = ManualView(data, 288);
  ScanCandidate candidate;
  candidate.change_index = view.analysis_plus_extended().size() - 1;
  candidate.baseline_mean = 0.050;
  candidate.regressed_mean = 0.050;
  candidate.delta = 0.020;  // Claimed delta never materialized in the tail.
  candidate.relative_delta = 0.4;
  const WentAwayVerdict verdict = WentAwayDetector().Evaluate(view, candidate, 144);
  EXPECT_TRUE(verdict.gone_away);
  EXPECT_FALSE(verdict.keep);
}

TEST(WentAwayTest, NonFiniteHistoryIsSkippedNotIndexed) {
  // Regression test: historical values used to index
  // hist_counts[Encode(v) - 'a'] unchecked, so a NaN or infinity that
  // survived the sanitizer (sub-threshold fraction, or the gate disabled)
  // could index out of the table. Non-finite points must be skipped — and a
  // persistent step must still be judged on the finite points alone.
  Rng rng(22);
  std::vector<double> data;
  for (int i = 0; i < 288; ++i) {
    if (i % 32 == 0) {
      data.push_back(std::numeric_limits<double>::quiet_NaN());
    } else if (i % 32 == 16) {
      data.push_back(std::numeric_limits<double>::infinity());
    } else {
      data.push_back(rng.Normal(0.050, 0.0005));
    }
  }
  for (int i = 0; i < 36; ++i) {
    data.push_back(rng.Normal(0.062, 0.0005));  // Persistent elevated plateau.
  }
  const ScanView view = ManualView(data, 288);
  ScanCandidate candidate;
  candidate.change_index = 0;
  candidate.baseline_mean = 0.050;
  candidate.regressed_mean = 0.062;
  candidate.delta = 0.012;
  candidate.relative_delta = 0.24;
  const WentAwayVerdict verdict = WentAwayDetector().Evaluate(view, candidate, 144);
  EXPECT_FALSE(verdict.gone_away);
}

TEST(WentAwayTest, AllNanHistoryProducesNoValidBuckets) {
  // Degenerate extreme of the same bug: with every historical point
  // non-finite there are no valid SAX buckets, so the significance rule has
  // nothing to compare against and must not crash or report significance.
  std::vector<double> data(288, std::numeric_limits<double>::quiet_NaN());
  Rng rng(23);
  for (int i = 0; i < 36; ++i) {
    data.push_back(rng.Normal(0.062, 0.0005));
  }
  const ScanView view = ManualView(data, 288);
  ScanCandidate candidate;
  candidate.change_index = 0;
  candidate.baseline_mean = 0.050;
  candidate.regressed_mean = 0.062;
  candidate.delta = 0.012;
  candidate.relative_delta = 0.24;
  const WentAwayVerdict verdict = WentAwayDetector().Evaluate(view, candidate, 144);
  EXPECT_FALSE(verdict.significant);
}

// ---------------------------------------------------------------------------
// SeasonalityStage.
// ---------------------------------------------------------------------------

TEST(SeasonalityStageTest, SeasonalPeakFilteredAsFalsePositive) {
  DetectionConfig config = TestConfig();
  config.windows.historical = Days(4);
  const Duration total = config.windows.Total();
  const Duration period = Days(1);
  // Pure diurnal pattern; the analysis window catches the rising flank.
  const TimeSeries series = BuildSeries(total, 0.0005, 13, [&](TimePoint t) {
    const double phase = 2.0 * M_PI * static_cast<double>(t % period) /
                         static_cast<double>(period);
    return 0.050 + 0.010 * std::sin(phase);
  });
  std::vector<double> scratch;
  const ScanView view = ViewOf(series, config, scratch);
  const auto candidate = ChangePointStage(config).DetectCandidate(view);
  if (!candidate.has_value()) {
    GTEST_SKIP() << "seasonal flank did not trigger the change-point stage";
  }
  WindowSeasonality seasonality(view.full);
  const SeasonalityVerdict verdict = SeasonalityStage().Evaluate(view, *candidate, seasonality);
  EXPECT_TRUE(verdict.seasonality_present);
  EXPECT_TRUE(verdict.seasonal_filtered);
}

TEST(SeasonalityStageTest, RealStepOnSeasonalSeriesKept) {
  DetectionConfig config = TestConfig();
  config.windows.historical = Days(4);
  const Duration total = config.windows.Total();
  const Duration period = Days(1);
  const TimePoint step_at = total - Hours(5);
  const TimeSeries series = BuildSeries(total, 0.0005, 14, [&](TimePoint t) {
    const double phase = 2.0 * M_PI * static_cast<double>(t % period) /
                         static_cast<double>(period);
    const double seasonal = 0.006 * std::sin(phase);
    return (t >= step_at ? 0.065 : 0.050) + seasonal;
  });
  std::vector<double> scratch;
  const ScanView view = ViewOf(series, config, scratch);
  const auto candidate = ChangePointStage(config).DetectCandidate(view);
  ASSERT_TRUE(candidate.has_value());
  WindowSeasonality seasonality(view.full);
  const SeasonalityVerdict verdict = SeasonalityStage().Evaluate(view, *candidate, seasonality);
  EXPECT_FALSE(verdict.seasonal_filtered);
}

TEST(SeasonalityStageTest, NonSeasonalSeriesPassesThrough) {
  const DetectionConfig config = TestConfig();
  const Duration total = config.windows.Total();
  const TimePoint step_at = total - Hours(5);
  const TimeSeries series = BuildSeries(total, 0.001, 15, [&](TimePoint t) {
    return t >= step_at ? 0.060 : 0.050;
  });
  std::vector<double> scratch;
  const ScanView view = ViewOf(series, config, scratch);
  const auto candidate = ChangePointStage(config).DetectCandidate(view);
  ASSERT_TRUE(candidate.has_value());
  WindowSeasonality seasonality(view.full);
  const SeasonalityVerdict verdict = SeasonalityStage().Evaluate(view, *candidate, seasonality);
  EXPECT_FALSE(verdict.seasonality_present);
  EXPECT_FALSE(verdict.seasonal_filtered);
}

// ---------------------------------------------------------------------------
// Threshold filter.
// ---------------------------------------------------------------------------

TEST(ThresholdFilterTest, AbsoluteMode) {
  DetectionConfig config;
  config.threshold_mode = ThresholdMode::kAbsolute;
  config.threshold = 0.01;
  Regression regression;
  regression.delta = 0.02;
  EXPECT_TRUE(PassesThreshold(regression, config));
  regression.delta = 0.005;
  EXPECT_FALSE(PassesThreshold(regression, config));
}

TEST(ThresholdFilterTest, RelativeMode) {
  DetectionConfig config;
  config.threshold_mode = ThresholdMode::kRelative;
  config.threshold = 0.05;
  Regression regression;
  regression.delta = 1.0;
  regression.relative_delta = 0.10;
  EXPECT_TRUE(PassesThreshold(regression, config));
  regression.relative_delta = 0.01;
  EXPECT_FALSE(PassesThreshold(regression, config));
}

// ---------------------------------------------------------------------------
// Long-term detector.
// ---------------------------------------------------------------------------

TEST(LongTermTest, DetectsSlowRamp) {
  DetectionConfig config;
  config.threshold = 0.003;
  config.windows.historical = Days(6);
  config.windows.analysis = Days(3);
  config.windows.extended = 0;
  const Duration total = config.windows.Total();
  const TimePoint ramp_start = total - Days(3);
  const TimeSeries series = BuildSeries(total, 0.002, 16, [&](TimePoint t) {
    if (t < ramp_start) {
      return 0.050;
    }
    const double progress =
        static_cast<double>(t - ramp_start) / static_cast<double>(Days(3));
    return 0.050 + 0.010 * progress;
  });
  std::vector<double> scratch;
  const ScanView view = ViewOf(series, config, scratch);
  WindowSeasonality seasonality(view.full);
  const auto regression = LongTermDetector(config).Detect(GcpuMetric(), view, seasonality);
  ASSERT_TRUE(regression.has_value());
  EXPECT_TRUE(regression->long_term);
  EXPECT_GT(regression->delta, 0.003);
}

TEST(LongTermTest, StableSeriesNotDetected) {
  DetectionConfig config;
  config.threshold = 0.003;
  config.windows.historical = Days(6);
  config.windows.analysis = Days(3);
  config.windows.extended = 0;
  const Duration total = config.windows.Total();
  const TimeSeries series = BuildSeries(total, 0.002, 17, [](TimePoint) { return 0.05; });
  std::vector<double> scratch;
  const ScanView view = ViewOf(series, config, scratch);
  WindowSeasonality seasonality(view.full);
  EXPECT_FALSE(LongTermDetector(config).Detect(GcpuMetric(), view, seasonality).has_value());
}

TEST(LongTermTest, SeasonalSeriesWithoutTrendNotDetected) {
  DetectionConfig config;
  config.threshold = 0.003;
  config.windows.historical = Days(6);
  config.windows.analysis = Days(3);
  config.windows.extended = 0;
  const Duration total = config.windows.Total();
  const Duration period = Days(1);
  const TimeSeries series = BuildSeries(total, 0.001, 18, [&](TimePoint t) {
    const double phase = 2.0 * M_PI * static_cast<double>(t % period) /
                         static_cast<double>(period);
    return 0.050 + 0.008 * std::sin(phase);
  });
  std::vector<double> scratch;
  const ScanView view = ViewOf(series, config, scratch);
  WindowSeasonality seasonality(view.full);
  EXPECT_FALSE(LongTermDetector(config).Detect(GcpuMetric(), view, seasonality).has_value());
}

// ---------------------------------------------------------------------------
// SameRegressionMerger.
// ---------------------------------------------------------------------------

// A regression of `metric` whose change point is at `change_time`.
Regression ChangeAt(const MetricId& metric, TimePoint change_time) {
  Regression regression;
  regression.metric = metric;
  regression.change_time = change_time;
  return regression;
}

// Whether the merger admits `regression` as new (and records it).
bool Admits(SameRegressionMerger& merger, const Regression& regression) {
  return merger.Filter(Fingerprinted({regression})).size() == 1;
}

TEST(SameRegressionMergerTest, DropsRepeatedChangePoint) {
  SameRegressionMerger merger(Hours(4));
  EXPECT_TRUE(Admits(merger, ChangeAt(GcpuMetric(), Hours(100))));
  // Same regression, re-run.
  EXPECT_FALSE(Admits(merger, ChangeAt(GcpuMetric(), Hours(100) + Hours(2))));
  // A genuinely new one.
  EXPECT_TRUE(Admits(merger, ChangeAt(GcpuMetric(), Hours(100) + Hours(10))));
}

TEST(SameRegressionMergerTest, DifferentMetricsIndependent) {
  SameRegressionMerger merger(Hours(4));
  EXPECT_TRUE(Admits(merger, ChangeAt(GcpuMetric(), Hours(10))));
  EXPECT_TRUE(
      Admits(merger, ChangeAt({"svc", MetricKind::kGcpu, "other_sub", ""}, Hours(10))));
}

TEST(SameRegressionMergerTest, FilterBatch) {
  SameRegressionMerger merger(Hours(4));
  const std::vector<FunnelCandidate> kept = merger.Filter(
      Fingerprinted({ChangeAt(GcpuMetric(), Hours(10)), ChangeAt(GcpuMetric(), Hours(11))}));
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].regression.change_time, Hours(10));
}

}  // namespace
}  // namespace fbdetect
