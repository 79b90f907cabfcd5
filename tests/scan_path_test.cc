// Tests for the zero-copy scan path: WindowView extraction vs a linear-scan
// oracle, the FFT-based autocorrelation vs the direct implementation, the
// persistent ThreadPool, the database generation counter behind the
// pipeline's metric-list cache, and — the load-bearing property — that
// scan_threads does not change pipeline output at all.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <vector>

#include "src/common/random.h"
#include "src/common/thread_pool.h"
#include "src/core/pipeline.h"
#include "src/fleet/fleet.h"
#include "src/fleet/scenario.h"
#include "src/stats/correlation.h"
#include "src/tsdb/database.h"
#include "src/tsdb/metric_id.h"
#include "src/tsdb/timeseries.h"
#include "src/tsdb/window.h"
#include "tests/batch_writes.h"

namespace fbdetect {
namespace {

TimeSeries MakeSeries(TimePoint start, Duration step, const std::vector<double>& values) {
  TimeSeries series;
  TimePoint t = start;
  for (double v : values) {
    series.Append(t, v);
    t += step;
  }
  return series;
}

// ---------------------------------------------------------------------------
// WindowView vs a linear-scan oracle: ExtractWindowView must select exactly
// the elements and boundaries the oracle does, on the normal case and on
// every truncation edge case.
// ---------------------------------------------------------------------------

// The three windows as owned copies.
struct WindowExtract {
  std::vector<double> historical;
  std::vector<double> analysis;
  std::vector<double> extended;
  std::vector<double> analysis_plus_extended;
  TimePoint historical_begin = 0;
  TimePoint analysis_begin = 0;
  TimePoint extended_begin = 0;
  TimePoint as_of = 0;
  // Timestamps aligned with analysis_plus_extended.
  std::vector<TimePoint> analysis_timestamps;
};

// The oracle: visits every point and files it by comparing its timestamp
// with the window boundaries. It shares no code with
// TimeSeries::SliceIndices, the binary search under ExtractWindowView.
WindowExtract ExtractWindows(const TimeSeries& series, TimePoint as_of, const WindowSpec& spec) {
  WindowExtract extract;
  extract.as_of = as_of;
  extract.extended_begin = as_of - spec.extended;
  extract.analysis_begin = extract.extended_begin - spec.analysis;
  extract.historical_begin = extract.analysis_begin - spec.historical;
  for (size_t i = 0; i < series.size(); ++i) {
    const TimePoint t = series.timestamps()[i];
    const double value = series.values()[i];
    if (t < extract.historical_begin || t >= as_of) {
      continue;
    }
    if (t < extract.analysis_begin) {
      extract.historical.push_back(value);
      continue;
    }
    (t < extract.extended_begin ? extract.analysis : extract.extended).push_back(value);
    extract.analysis_plus_extended.push_back(value);
    extract.analysis_timestamps.push_back(t);
  }
  return extract;
}

void ExpectViewMatchesExtract(const TimeSeries& series, TimePoint as_of,
                              const WindowSpec& spec) {
  const WindowExtract extract = ExtractWindows(series, as_of, spec);
  const WindowView view = ExtractWindowView(series, as_of, spec);

  ASSERT_EQ(view.historical.size(), extract.historical.size());
  ASSERT_EQ(view.analysis.size(), extract.analysis.size());
  ASSERT_EQ(view.extended.size(), extract.extended.size());
  ASSERT_EQ(view.analysis_plus_extended.size(), extract.analysis_plus_extended.size());
  ASSERT_EQ(view.full.size(),
            extract.historical.size() + extract.analysis_plus_extended.size());
  ASSERT_EQ(view.analysis_timestamps.size(), extract.analysis_timestamps.size());

  for (size_t i = 0; i < extract.historical.size(); ++i) {
    EXPECT_EQ(view.historical[i], extract.historical[i]) << "historical[" << i << "]";
  }
  for (size_t i = 0; i < extract.analysis.size(); ++i) {
    EXPECT_EQ(view.analysis[i], extract.analysis[i]) << "analysis[" << i << "]";
  }
  for (size_t i = 0; i < extract.extended.size(); ++i) {
    EXPECT_EQ(view.extended[i], extract.extended[i]) << "extended[" << i << "]";
  }
  for (size_t i = 0; i < extract.analysis_plus_extended.size(); ++i) {
    EXPECT_EQ(view.analysis_plus_extended[i], extract.analysis_plus_extended[i]);
    EXPECT_EQ(view.full[extract.historical.size() + i],
              extract.analysis_plus_extended[i]);
  }
  for (size_t i = 0; i < extract.historical.size(); ++i) {
    EXPECT_EQ(view.full[i], extract.historical[i]);
  }
  for (size_t i = 0; i < extract.analysis_timestamps.size(); ++i) {
    EXPECT_EQ(view.analysis_timestamps[i], extract.analysis_timestamps[i]);
  }
  EXPECT_EQ(view.historical_begin, extract.historical_begin);
  EXPECT_EQ(view.analysis_begin, extract.analysis_begin);
  EXPECT_EQ(view.extended_begin, extract.extended_begin);
  EXPECT_EQ(view.as_of, extract.as_of);
}

WindowSpec SmallSpec() {
  WindowSpec spec;
  spec.historical = 70;
  spec.analysis = 20;
  spec.extended = 10;
  return spec;
}

TEST(WindowViewTest, MatchesExtractOnFullSeries) {
  std::vector<double> values;
  for (int i = 0; i < 100; ++i) {
    values.push_back(static_cast<double>(i) * 0.5);
  }
  const TimeSeries series = MakeSeries(0, 1, values);
  ExpectViewMatchesExtract(series, 100, SmallSpec());
}

TEST(WindowViewTest, MatchesExtractWithEmptyExtendedWindow) {
  std::vector<double> values;
  for (int i = 0; i < 100; ++i) {
    values.push_back(static_cast<double>(i));
  }
  const TimeSeries series = MakeSeries(0, 1, values);
  WindowSpec spec = SmallSpec();
  spec.extended = 0;  // N/A rows in Table 1.
  ExpectViewMatchesExtract(series, 100, spec);

  const WindowView view = ExtractWindowView(series, 100, spec);
  EXPECT_TRUE(view.extended.empty());
  EXPECT_EQ(view.analysis_plus_extended.size(), view.analysis.size());
}

TEST(WindowViewTest, MatchesExtractWhenSeriesShorterThanHistorical) {
  // Only 25 points: the historical window is partially (here: entirely)
  // before the series start.
  const TimeSeries series = MakeSeries(75, 1, std::vector<double>(25, 1.5));
  ExpectViewMatchesExtract(series, 100, SmallSpec());

  const WindowView view = ExtractWindowView(series, 100, SmallSpec());
  EXPECT_TRUE(view.historical.empty());
  EXPECT_FALSE(view.analysis.empty());
}

TEST(WindowViewTest, MatchesExtractWhenAsOfBeforeSeriesStart) {
  const TimeSeries series = MakeSeries(500, 1, {1.0, 2.0, 3.0});
  ExpectViewMatchesExtract(series, 100, SmallSpec());

  const WindowView view = ExtractWindowView(series, 100, SmallSpec());
  EXPECT_TRUE(view.full.empty());
  EXPECT_TRUE(view.analysis_timestamps.empty());
}

TEST(WindowViewTest, MatchesExtractWhenAsOfMidSeries) {
  std::vector<double> values;
  for (int i = 0; i < 200; ++i) {
    values.push_back(std::sin(static_cast<double>(i) / 7.0));
  }
  const TimeSeries series = MakeSeries(0, 1, values);
  ExpectViewMatchesExtract(series, 150, SmallSpec());
}

TEST(WindowViewTest, SpansAliasSeriesStorage) {
  std::vector<double> values;
  for (int i = 0; i < 100; ++i) {
    values.push_back(static_cast<double>(i));
  }
  const TimeSeries series = MakeSeries(0, 1, values);
  const WindowView view = ExtractWindowView(series, 100, SmallSpec());
  // Zero-copy means the spans point INTO the series' storage.
  EXPECT_EQ(view.full.data(), series.value_span().data());
  EXPECT_EQ(view.analysis.data(), view.full.data() + view.historical.size());
}

// ---------------------------------------------------------------------------
// FFT autocorrelation vs the direct reference.
// ---------------------------------------------------------------------------

TEST(FftAcfTest, MatchesBruteForceOnRandomSeries) {
  Rng rng(7);
  for (size_t n : {64u, 100u, 255u, 1024u}) {
    std::vector<double> values;
    values.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      values.push_back(rng.Normal(5.0, 2.0));
    }
    const size_t max_lag = n / 2;
    const std::vector<double> fft = AutocorrelationFunction(values, max_lag);
    const std::vector<double> direct = AutocorrelationFunctionBruteForce(values, max_lag);
    ASSERT_EQ(fft.size(), direct.size()) << "n=" << n;
    for (size_t lag = 0; lag < fft.size(); ++lag) {
      EXPECT_NEAR(fft[lag], direct[lag], 1e-9) << "n=" << n << " lag=" << (lag + 1);
    }
  }
}

TEST(FftAcfTest, MatchesBruteForceOnSeasonalSeries) {
  std::vector<double> values;
  for (int i = 0; i < 500; ++i) {
    values.push_back(10.0 + 3.0 * std::sin(2.0 * M_PI * i / 24.0));
  }
  const std::vector<double> fft = AutocorrelationFunction(values, 200);
  const std::vector<double> direct = AutocorrelationFunctionBruteForce(values, 200);
  ASSERT_EQ(fft.size(), direct.size());
  for (size_t lag = 0; lag < fft.size(); ++lag) {
    EXPECT_NEAR(fft[lag], direct[lag], 1e-9) << "lag=" << (lag + 1);
  }
  // The period must be clearly visible at lag 24.
  EXPECT_GT(fft[23], 0.9);
}

TEST(FftAcfTest, ConstantSeriesYieldsZeros) {
  const std::vector<double> values(128, 3.0);
  for (double acf : AutocorrelationFunction(values, 64)) {
    EXPECT_EQ(acf, 0.0);
  }
  for (double acf : AutocorrelationFunctionBruteForce(values, 64)) {
    EXPECT_EQ(acf, 0.0);
  }
}

TEST(FftAcfTest, SeasonalityDetectionUnchangedByFastPath) {
  // DetectSeasonality must reach the same (present, period) decision whether
  // the series is below or above the FFT dispatch size.
  for (int period : {12, 24, 48}) {
    std::vector<double> values;
    for (int i = 0; i < 480; ++i) {
      values.push_back(5.0 + 2.0 * std::sin(2.0 * M_PI * i / period));
    }
    const SeasonalityEstimate estimate =
        DetectSeasonality(values, 4, values.size() / 3, 0.5);
    EXPECT_TRUE(estimate.present) << "period=" << period;
    EXPECT_EQ(estimate.period, static_cast<size_t>(period));
  }
}

// ---------------------------------------------------------------------------
// ThreadPool.
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(3);
  constexpr size_t kTasks = 1000;
  std::vector<std::atomic<int>> counts(kTasks);
  pool.ParallelFor(kTasks, [&](size_t i) { counts[i].fetch_add(1); });
  for (size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(counts[i].load(), 1) << "task " << i;
  }
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<size_t> sum{0};
    pool.ParallelFor(10, [&](size_t i) { sum.fetch_add(i + 1); });
    EXPECT_EQ(sum.load(), 55u) << "round " << round;
  }
}

TEST(ThreadPoolTest, ZeroWorkersRunsSerially) {
  ThreadPool pool(0);
  std::vector<int> order;
  pool.ParallelFor(5, [&](size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, EmptyBatchIsNoOp) {
  ThreadPool pool(2);
  bool ran = false;
  pool.ParallelFor(0, [&](size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

// ---------------------------------------------------------------------------
// Database generation counter (backs the pipeline's metric-list cache).
// ---------------------------------------------------------------------------

TEST(DatabaseGenerationTest, BumpsOnEveryMutation) {
  TimeSeriesDatabase db;
  const uint64_t g0 = db.generation();
  CommitPoint(db, {"svc", MetricKind::kCpu, "", ""}, 10, 0.5);
  const uint64_t g1 = db.generation();
  EXPECT_GT(g1, g0);
  CommitSeries(db, {"svc", MetricKind::kGcpu, "sub", ""}, MakeSeries(0, 10, {1.0, 2.0}));
  const uint64_t g2 = db.generation();
  EXPECT_GT(g2, g1);
  db.Expire(5);
  EXPECT_GT(db.generation(), g2);
}

TEST(DatabaseGenerationTest, StableAcrossReads) {
  TimeSeriesDatabase db;
  const MetricId id{"svc", MetricKind::kCpu, "", ""};
  CommitPoint(db, id, 10, 0.5);
  const uint64_t g = db.generation();
  (void)db.Find(id);
  (void)db.ListMetrics("svc");
  EXPECT_EQ(db.generation(), g);
}

// ---------------------------------------------------------------------------
// Scan-thread determinism on a seeded fleet scenario: every scan_threads
// value must produce IDENTICAL reports and funnel counts. EXPECT_EQ on the
// doubles on purpose — the guarantee is bit-identity, not approximation.
// ---------------------------------------------------------------------------

struct SmallWorld {
  FleetSimulator fleet;
  ServiceSimulator* service = nullptr;

  static constexpr Duration kDuration = Days(3);

  explicit SmallWorld(uint64_t seed) {
    ServiceConfig config;
    config.name = "svc";
    config.num_servers = 100;
    config.call_graph.num_subroutines = 40;
    config.sampling.samples_per_bucket = 1000000;
    config.sampling.bucket_width = Minutes(10);
    config.tick = Minutes(10);
    config.num_seasonal_subroutines = 6;
    config.seasonal_mix_amplitude = 0.10;
    config.seed = seed;
    service = fleet.AddService(config);

    InjectedEvent regression;
    regression.kind = EventKind::kStepRegression;
    regression.service = "svc";
    regression.subroutine = service->graph().node(5).name;
    regression.start = Days(1) + Hours(13);
    regression.magnitude = 0.5;
    fleet.InjectEvent(regression);

    InjectedEvent transient;
    transient.kind = EventKind::kTransientIssue;
    transient.transient_kind = TransientKind::kLoadSpike;
    transient.service = "svc";
    transient.start = Days(2) + Hours(2);
    transient.duration = Hours(1);
    transient.magnitude = 0.3;
    fleet.InjectEvent(transient);

    fleet.Run(0, kDuration);
  }

  PipelineOptions Options(int scan_threads) const {
    PipelineOptions options;
    options.detection.threshold = 0.0005;
    options.detection.windows.historical = Days(1);
    options.detection.windows.analysis = Hours(4);
    options.detection.windows.extended = Hours(2);
    options.detection.rerun_interval = Hours(4);
    options.scan_threads = scan_threads;
    return options;
  }
};

void ExpectIdenticalReports(const std::vector<Regression>& a,
                            const std::vector<Regression>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].metric, b[i].metric) << "report " << i;
    EXPECT_EQ(a[i].long_term, b[i].long_term) << "report " << i;
    EXPECT_EQ(a[i].detected_at, b[i].detected_at) << "report " << i;
    EXPECT_EQ(a[i].change_time, b[i].change_time) << "report " << i;
    EXPECT_EQ(a[i].change_index, b[i].change_index) << "report " << i;
    EXPECT_EQ(a[i].p_value, b[i].p_value) << "report " << i;
    EXPECT_EQ(a[i].baseline_mean, b[i].baseline_mean) << "report " << i;
    EXPECT_EQ(a[i].regressed_mean, b[i].regressed_mean) << "report " << i;
    EXPECT_EQ(a[i].delta, b[i].delta) << "report " << i;
    EXPECT_EQ(a[i].relative_delta, b[i].relative_delta) << "report " << i;
    EXPECT_EQ(a[i].historical, b[i].historical) << "report " << i;
    EXPECT_EQ(a[i].analysis, b[i].analysis) << "report " << i;
  }
}

void ExpectIdenticalFunnels(const FunnelStats& a, const FunnelStats& b) {
  EXPECT_EQ(a.change_points, b.change_points);
  EXPECT_EQ(a.after_went_away, b.after_went_away);
  EXPECT_EQ(a.after_seasonality, b.after_seasonality);
  EXPECT_EQ(a.after_threshold, b.after_threshold);
  EXPECT_EQ(a.after_same_merger, b.after_same_merger);
  EXPECT_EQ(a.after_som_dedup, b.after_som_dedup);
  EXPECT_EQ(a.after_cost_shift, b.after_cost_shift);
  EXPECT_EQ(a.after_pairwise, b.after_pairwise);
}

TEST(ScanDeterminismTest, ThreadCountDoesNotChangeOutput) {
  SmallWorld world(11);

  std::vector<std::vector<Regression>> reports;
  std::vector<FunnelStats> short_funnels;
  std::vector<FunnelStats> long_funnels;
  for (int threads : {1, 2, 8}) {
    Pipeline pipeline(&world.fleet.db(), &world.fleet.change_log(), nullptr,
                      world.Options(threads));
    reports.push_back(pipeline.RunPeriod("svc", Days(1), SmallWorld::kDuration));
    short_funnels.push_back(pipeline.short_term_funnel());
    long_funnels.push_back(pipeline.long_term_funnel());
  }

  // Something must actually be flowing through the funnel for the comparison
  // to mean anything.
  ASSERT_GT(short_funnels[0].change_points, 0u);

  for (size_t i = 1; i < reports.size(); ++i) {
    ExpectIdenticalReports(reports[0], reports[i]);
    ExpectIdenticalFunnels(short_funnels[0], short_funnels[i]);
    ExpectIdenticalFunnels(long_funnels[0], long_funnels[i]);
  }
}

}  // namespace
}  // namespace fbdetect
