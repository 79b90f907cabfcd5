// Failure injection and degenerate-input robustness across the stack: the
// detectors must never crash, hang, or emit spurious reports when fed
// constant series, corrupt (NaN/inf) data, single points, or services whose
// series appear/disappear mid-window.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>

#include "src/common/random.h"
#include "src/core/pipeline.h"
#include "src/stats/text.h"
#include "src/tsa/em_changepoint.h"
#include "src/tsa/loess.h"
#include "src/tsa/sax.h"
#include "src/tsa/stl.h"
#include "src/tsdb/database.h"
#include "src/tsdb/window.h"
#include "tests/batch_writes.h"

namespace fbdetect {
namespace {

constexpr Duration kTick = Minutes(10);

PipelineOptions SmallOptions() {
  PipelineOptions options;
  options.detection.threshold = 0.0005;
  options.detection.windows.historical = Days(1);
  options.detection.windows.analysis = Hours(4);
  options.detection.windows.extended = Hours(2);
  options.detection.rerun_interval = Hours(4);
  return options;
}

// Commits `value(t)` at every tick of [0, total) in one batch.
void CommitTicks(TimeSeriesDatabase& db, const MetricId& id, Duration total,
                 const std::function<double(TimePoint)>& value) {
  const InternedMetricId interned = db.Intern(id);
  WriteBatch batch(&db);
  for (TimePoint t = 0; t < total; t += kTick) {
    batch.Add(interned, t, value(t));
  }
  batch.Commit();
}

TEST(RobustnessTest, ConstantSeriesProducesNoReports) {
  TimeSeriesDatabase db;
  const MetricId id{"svc", MetricKind::kGcpu, "sub", ""};
  CommitTicks(db, id, Days(2), [](TimePoint) { return 0.05; });
  Pipeline pipeline(&db, nullptr, nullptr, SmallOptions());
  EXPECT_TRUE(pipeline.RunPeriod("svc", Days(1), Days(2)).empty());
}

TEST(RobustnessTest, NanInSeriesIsSkippedNotCrashed) {
  TimeSeriesDatabase db;
  const MetricId id{"svc", MetricKind::kGcpu, "sub", ""};
  CommitTicks(db, id, Days(2), [](TimePoint t) {
    if (t == Days(1) + Hours(1)) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    return t >= Days(1) ? 0.06 : 0.05;
  });
  Pipeline pipeline(&db, nullptr, nullptr, SmallOptions());
  // Must not crash; runs whose windows contain the NaN skip the series.
  const std::vector<Regression> reports = pipeline.RunPeriod("svc", Days(1), Days(2));
  for (const Regression& report : reports) {
    EXPECT_FALSE(std::isnan(report.delta));
  }
}

TEST(RobustnessTest, InfInSeriesIsSkipped) {
  TimeSeriesDatabase db;
  const MetricId id{"svc", MetricKind::kCpu, "", ""};
  CommitTicks(db, id, Days(2), [](TimePoint t) {
    return t == Days(1) ? std::numeric_limits<double>::infinity() : 0.5;
  });
  Pipeline pipeline(&db, nullptr, nullptr, SmallOptions());
  const std::vector<Regression> reports = pipeline.RunPeriod("svc", Days(1), Days(2));
  for (const Regression& report : reports) {
    EXPECT_TRUE(std::isfinite(report.delta));
  }
}

TEST(RobustnessTest, SparseSingletonSeries) {
  TimeSeriesDatabase db;
  CommitPoint(db, {"svc", MetricKind::kGcpu, "one_point", ""}, Days(1), 0.05);
  Pipeline pipeline(&db, nullptr, nullptr, SmallOptions());
  EXPECT_TRUE(pipeline.RunPeriod("svc", Days(1), Days(2)).empty());
}

TEST(RobustnessTest, ServiceAppearingMidWindow) {
  TimeSeriesDatabase db;
  const MetricId id{"svc", MetricKind::kGcpu, "late_arrival", ""};
  // Data only exists for the last six hours: not enough history.
  Rng rng(1);
  TimeSeries series;
  for (TimePoint t = Days(2) - Hours(6); t < Days(2); t += kTick) {
    series.Append(t, rng.Normal(0.05, 0.001));
  }
  CommitSeries(db, id, series);
  Pipeline pipeline(&db, nullptr, nullptr, SmallOptions());
  EXPECT_TRUE(pipeline.RunPeriod("svc", Days(1), Days(2)).empty());
}

TEST(RobustnessTest, SeriesDisappearingMidPeriod) {
  TimeSeriesDatabase db;
  const MetricId id{"svc", MetricKind::kGcpu, "vanisher", ""};
  Rng rng(2);
  // Data stops at day 1.5; re-runs after that see a stale (but valid) tail.
  TimeSeries series;
  for (TimePoint t = 0; t < Days(1) + Hours(12); t += kTick) {
    series.Append(t, rng.Normal(0.05, 0.001));
  }
  CommitSeries(db, id, series);
  Pipeline pipeline(&db, nullptr, nullptr, SmallOptions());
  const std::vector<Regression> reports = pipeline.RunPeriod("svc", Days(1), Days(2));
  EXPECT_TRUE(reports.empty());
}

TEST(RobustnessTest, WindowsBeforeSeriesStartAreEmpty) {
  TimeSeries series;
  series.Append(Days(10), 1.0);
  WindowSpec spec;
  const WindowView view = ExtractWindowView(series, Days(1), spec);
  EXPECT_TRUE(view.historical.empty());
  EXPECT_TRUE(view.analysis.empty());
  EXPECT_TRUE(view.extended.empty());
}

// --- Degenerate inputs to the TSA primitives ---

TEST(RobustnessTest, EmChangePointOnIdenticalValues) {
  const std::vector<double> constant(64, 2.0);
  EXPECT_FALSE(DetectChangePoint(constant).found);
}

TEST(RobustnessTest, EmChangePointOnTwoValues) {
  EXPECT_FALSE(DetectChangePoint(std::vector<double>{1.0, 2.0}).found);
}

TEST(RobustnessTest, LoessSpanLargerThanSeries) {
  const std::vector<double> values = {1.0, 2.0, 3.0};
  std::vector<double> smoothed(values.size());
  LoessPlan(values.size(), 100).Apply(values, smoothed);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(smoothed[i], values[i], 1e-9);  // Linear data: exact.
  }
}

TEST(RobustnessTest, StlPeriodTooLargeFallsBack) {
  const std::vector<double> values(20, 1.0);
  const Decomposition stl = StlDecompose(values, 15);  // Needs 2 periods.
  EXPECT_FALSE(stl.valid);
  EXPECT_EQ(stl.trend, values);
}

TEST(RobustnessTest, SaxEmptyReference) {
  const SaxEncoder encoder(std::vector<double>{}, SaxConfig{});
  EXPECT_EQ(encoder.Encode(5.0), 'a');
}

TEST(RobustnessTest, TfIdfWithoutFitStillEmbeds) {
  TfIdfHasher hasher(8);
  HashedGrams grams;
  HashGramsOf("anything", grams);
  std::vector<double> embedding(hasher.dimensions());
  hasher.EmbedHashed(grams, embedding);
  double norm = 0.0;
  for (double v : embedding) {
    norm += v * v;
  }
  EXPECT_NEAR(norm, 1.0, 1e-9);
}

TEST(RobustnessTest, PipelineRerunsAreIdempotentOnStaleData) {
  // Running the pipeline twice over the same period must not double-report:
  // SameRegressionMerger state persists within a pipeline instance.
  TimeSeriesDatabase db;
  const MetricId id{"svc", MetricKind::kGcpu, "sub", ""};
  Rng rng(3);
  CommitTicks(db, id, Days(2), [&rng](TimePoint t) {
    return rng.Normal(t >= Days(1) + Hours(6) ? 0.06 : 0.05, 0.001);
  });
  Pipeline pipeline(&db, nullptr, nullptr, SmallOptions());
  const size_t first = pipeline.RunPeriod("svc", Days(1), Days(2)).size();
  const size_t second = pipeline.RunPeriod("svc", Days(1), Days(2)).size();
  EXPECT_GE(first, 1u);
  EXPECT_EQ(second, 0u);
}

}  // namespace
}  // namespace fbdetect
