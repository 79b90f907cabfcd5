#include <gtest/gtest.h>

#include <optional>

#include "src/common/sim_time.h"
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

TEST(MetricIdTest, ToStringFormats) {
  MetricId id{"svc", MetricKind::kGcpu, "foo", ""};
  EXPECT_EQ(id.ToString(), "svc/gcpu/foo");
  id.metadata = "user/vip";
  EXPECT_EQ(id.ToString(), "svc/gcpu/foo@user/vip");
  MetricId service_level{"svc", MetricKind::kCpu, "", ""};
  EXPECT_EQ(service_level.ToString(), "svc/cpu");
}

TEST(MetricIdTest, EqualityAndHash) {
  const MetricId a{"svc", MetricKind::kGcpu, "foo", ""};
  const MetricId b{"svc", MetricKind::kGcpu, "foo", ""};
  const MetricId c{"svc", MetricKind::kGcpu, "bar", ""};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // Storage hashes the interned key: equal identities intern to equal keys.
  TimeSeriesDatabase db;
  const InternedMetricIdHash hash;
  EXPECT_EQ(db.Intern(a), db.Intern(b));
  EXPECT_EQ(hash(db.Intern(a)), hash(db.Intern(b)));
  EXPECT_NE(db.Intern(a), db.Intern(c));
}

TEST(MetricIdTest, AllKindsHaveNames) {
  for (int k = 0; k <= static_cast<int>(MetricKind::kApplication); ++k) {
    EXPECT_STRNE(MetricKindName(static_cast<MetricKind>(k)), "unknown");
  }
}

TEST(TimeSeriesTest, AppendAndAccess) {
  const TimeSeries series = MakeSeries(100, 10, {1.0, 2.0, 3.0});
  EXPECT_EQ(series.size(), 3u);
  EXPECT_EQ(series.start_time(), 100);
  EXPECT_EQ(series.end_time(), 120);
}

TEST(TimeSeriesTest, ValuesBetweenEmptyRange) {
  const TimeSeries series = MakeSeries(0, 10, {1.0, 2.0});
  EXPECT_TRUE(series.ValuesBetween(100, 200).empty());
  EXPECT_TRUE(series.ValuesBetween(5, 5).empty());
}

TEST(TimeSeriesTest, DropBefore) {
  TimeSeries series = MakeSeries(0, 10, {1.0, 2.0, 3.0, 4.0});
  series.DropBefore(20);
  EXPECT_EQ(series.size(), 2u);
  EXPECT_EQ(series.start_time(), 20);
}

TEST(WindowTest, ExtractSplitsCorrectly) {
  // 100 points at 1s resolution, as_of = 100.
  std::vector<double> values;
  for (int i = 0; i < 100; ++i) {
    values.push_back(static_cast<double>(i));
  }
  const TimeSeries series = MakeSeries(0, 1, values);
  WindowSpec spec;
  spec.historical = 70;
  spec.analysis = 20;
  spec.extended = 10;
  const WindowView view = ExtractWindowView(series, 100, spec);
  EXPECT_EQ(view.historical.size(), 70u);
  EXPECT_EQ(view.analysis.size(), 20u);
  EXPECT_EQ(view.extended.size(), 10u);
  EXPECT_DOUBLE_EQ(view.historical.front(), 0.0);
  EXPECT_DOUBLE_EQ(view.analysis.front(), 70.0);
  EXPECT_DOUBLE_EQ(view.extended.front(), 90.0);
  EXPECT_EQ(view.analysis_plus_extended.size(), 30u);
  EXPECT_EQ(view.analysis_timestamps.size(), 30u);
  EXPECT_EQ(view.analysis_timestamps.front(), 70);
}

TEST(WindowTest, PartialDataYieldsShortWindows) {
  const TimeSeries series = MakeSeries(90, 1, {1.0, 2.0, 3.0});
  WindowSpec spec;
  spec.historical = 50;
  spec.analysis = 10;
  const WindowView view = ExtractWindowView(series, 100, spec);
  EXPECT_TRUE(view.historical.empty());
  EXPECT_EQ(view.analysis.size(), 3u);
}

TEST(DatabaseTest, WriteAndFind) {
  TimeSeriesDatabase db;
  const MetricId id{"svc", MetricKind::kCpu, "", ""};
  CommitSeries(db, id, MakeSeries(10, 10, {0.5, 0.6}));
  const std::optional<TimeSeries> series = db.Find(id);
  ASSERT_TRUE(series.has_value());
  EXPECT_EQ(series->size(), 2u);
  EXPECT_FALSE(db.Find(MetricId{"other", MetricKind::kCpu, "", ""}).has_value());
}

TEST(DatabaseTest, ListMetricsFiltersAndSorts) {
  TimeSeriesDatabase db;
  CommitPoint(db, {"b_svc", MetricKind::kCpu, "", ""}, 1, 0.1);
  CommitPoint(db, {"a_svc", MetricKind::kGcpu, "sub_2", ""}, 1, 0.1);
  CommitPoint(db, {"a_svc", MetricKind::kGcpu, "sub_1", ""}, 1, 0.1);
  CommitPoint(db, {"a_svc", MetricKind::kThroughput, "", ""}, 1, 0.1);

  const std::vector<MetricId> all = db.ListMetrics();
  EXPECT_EQ(all.size(), 4u);
  const std::vector<MetricId> a_only = db.ListMetrics("a_svc");
  EXPECT_EQ(a_only.size(), 3u);
  // Deterministic lexicographic order.
  EXPECT_EQ(a_only[0].entity, "sub_1");
  EXPECT_EQ(a_only[1].entity, "sub_2");

  const std::vector<MetricId> gcpu = db.ListMetricsOfKind("a_svc", MetricKind::kGcpu);
  EXPECT_EQ(gcpu.size(), 2u);
}

TEST(DatabaseTest, WriteSeriesBulkAndAppend) {
  TimeSeriesDatabase db;
  const MetricId id{"svc", MetricKind::kLatency, "e", ""};
  CommitSeries(db, id, MakeSeries(0, 10, {1.0, 2.0}));
  CommitSeries(db, id, MakeSeries(20, 10, {3.0}));
  EXPECT_EQ(db.Find(id)->size(), 3u);
}

TEST(DatabaseTest, ExpireDropsOldPointsAndEmptyMetrics) {
  TimeSeriesDatabase db;
  const MetricId keep{"svc", MetricKind::kCpu, "", ""};
  const MetricId drop{"svc", MetricKind::kMemory, "", ""};
  CommitSeries(db, keep, MakeSeries(0, 10, {1.0, 2.0, 3.0}));
  CommitSeries(db, drop, MakeSeries(0, 10, {1.0}));
  db.Expire(15);  // Keeps only points with t >= 15: {20} of `keep`.
  EXPECT_EQ(db.metric_count(), 1u);
  EXPECT_EQ(db.Find(keep)->size(), 1u);
  EXPECT_EQ(db.total_points(), 1u);
}

}  // namespace
}  // namespace fbdetect
