// Cross-cutting property sweeps (TEST_P) over the invariants the paper's
// math relies on.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "src/common/random.h"
#include "src/core/pipeline.h"
#include "src/core/workload_config.h"
#include "src/profiling/call_graph.h"
#include "src/stats/descriptive.h"
#include "src/tsa/stl.h"
#include "src/tsdb/database.h"
#include "src/tsdb/timeseries.h"
#include "src/tsdb/window.h"
#include "tests/sampling_oracle.h"

namespace fbdetect {
namespace {

// ---------------------------------------------------------------------------
// Property: sampled gCPU converges to the closed-form reach probability for
// arbitrary random call graphs (the analytic fast path used by the fleet
// simulator is faithful to real sampling).
// ---------------------------------------------------------------------------

class ReachVsSamplingTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReachVsSamplingTest, AnalyticMatchesSampled) {
  Rng build_rng(GetParam());
  RandomCallGraphOptions options;
  options.num_subroutines = 80;
  options.max_depth = 5;
  const CallGraph graph = GenerateRandomCallGraph(options, build_rng);
  const std::vector<double> reach = graph.ReachProbabilities();

  Rng sample_rng(GetParam() + 1000);
  const int n = 40000;
  const std::vector<double> sampled = oracle::SampledGcpu(graph, n, sample_rng);
  // Compare on the heavier nodes where the binomial error bound is tight.
  for (size_t i = 0; i < reach.size(); ++i) {
    if (reach[i] > 0.02) {
      const double bound = 5.0 * std::sqrt(reach[i] * (1.0 - reach[i]) / n);
      EXPECT_NEAR(sampled[i], reach[i], bound + 1e-9)
          << graph.node(static_cast<NodeId>(i)).name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReachVsSamplingTest, ::testing::Values(1, 7, 42, 1234));

// ---------------------------------------------------------------------------
// Property: the short-term detection stack reports steps above the
// configured threshold and stays silent below it, across threshold settings.
// ---------------------------------------------------------------------------

class ThresholdSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(ThresholdSweepTest, DetectsAboveRejectsBelow) {
  const double threshold = GetParam();
  DetectionConfig config;
  config.threshold = threshold;
  config.windows.historical = Days(2);
  config.windows.analysis = Hours(4);
  config.windows.extended = Hours(2);

  // Whether the short-term path reports the step: the scan's threshold
  // stage, after change point, went-away and seasonality, passed it.
  auto run_with_step = [&](double step) {
    const MetricId metric{"svc", MetricKind::kGcpu, "s", ""};
    Rng rng(99);
    TimeSeriesDatabase db;
    const InternedMetricId id = db.Intern(metric);
    WriteBatch batch(&db);
    const Duration total = config.windows.Total();
    const TimePoint step_at = total - Hours(4);
    for (TimePoint t = 0; t < total; t += Minutes(10)) {
      batch.Add(id, t, rng.Normal(0.05 + (t >= step_at ? step : 0.0), threshold * 0.5));
    }
    batch.Commit();
    PipelineOptions options;
    options.detection = config;
    Pipeline pipeline(&db, nullptr, nullptr, options);
    return pipeline.ScanSeries(metric, total).threshold.value_or(false);
  };

  EXPECT_TRUE(run_with_step(threshold * 3.0)) << "threshold " << threshold;
  EXPECT_FALSE(run_with_step(threshold * 0.1)) << "threshold " << threshold;
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ThresholdSweepTest,
                         ::testing::Values(0.00005, 0.0005, 0.005, 0.03));

// ---------------------------------------------------------------------------
// Property: STL reconstruction (seasonal + trend + residual == input) holds
// for every (period, amplitude) combination, and the residual shrinks as the
// signal-to-noise ratio rises.
// ---------------------------------------------------------------------------

struct StlCase {
  size_t period;
  double amplitude;
  double noise;
};

// Names each case by its fields in the test ids.
void PrintTo(const StlCase& c, std::ostream* os) {
  *os << "period=" << c.period << " amplitude=" << c.amplitude << " noise=" << c.noise;
}

class StlSweepTest : public ::testing::TestWithParam<StlCase> {};

TEST_P(StlSweepTest, ReconstructsAndSeparates) {
  const StlCase c = GetParam();
  Rng rng(c.period * 31 + 7);
  std::vector<double> values;
  for (size_t i = 0; i < c.period * 12; ++i) {
    values.push_back(1.0 +
                     c.amplitude * std::sin(2.0 * M_PI * static_cast<double>(i) / c.period) +
                     rng.Normal(0.0, c.noise));
  }
  const Decomposition stl = StlDecompose(values, c.period);
  ASSERT_TRUE(stl.valid);
  for (size_t i = 0; i < values.size(); ++i) {
    ASSERT_NEAR(stl.seasonal[i] + stl.trend[i] + stl.residual[i], values[i], 1e-9);
  }
  // The residual carries (roughly) only the injected noise, not the seasonal
  // signal: its sd must stay well below the seasonal amplitude.
  const std::span<const double> interior(stl.residual.data() + c.period,
                                         stl.residual.size() - 2 * c.period);
  EXPECT_LT(SampleStdDev(interior), c.amplitude * 0.5 + 2.0 * c.noise);
}

INSTANTIATE_TEST_SUITE_P(Cases, StlSweepTest,
                         ::testing::Values(StlCase{8, 1.0, 0.05}, StlCase{24, 0.5, 0.1},
                                           StlCase{48, 2.0, 0.2}, StlCase{12, 0.2, 0.01}));

// ---------------------------------------------------------------------------
// Property: window extraction partitions the covered range — the three
// windows never overlap and jointly cover [as_of - total, as_of).
// ---------------------------------------------------------------------------

class WindowPartitionTest : public ::testing::TestWithParam<int> {};

TEST_P(WindowPartitionTest, WindowsPartitionTheRange) {
  const int spec_index = GetParam();
  const std::vector<WindowSpec> specs = {
      {Days(2), Hours(4), Hours(2)},
      {Days(10), Hours(3), 0},
      {Days(1), Hours(1), Hours(12)},
  };
  const WindowSpec spec = specs[static_cast<size_t>(spec_index)];
  TimeSeries series;
  for (TimePoint t = 0; t < spec.Total() + Days(1); t += Minutes(10)) {
    series.Append(t, static_cast<double>(t));
  }
  const TimePoint as_of = spec.Total() + Hours(7);
  const WindowView view = ExtractWindowView(series, as_of, spec);
  // Sizes add up to the number of points in [as_of - total, as_of).
  const size_t expected = series.ValuesBetween(as_of - spec.Total(), as_of).size();
  EXPECT_EQ(view.historical.size() + view.analysis.size() + view.extended.size(),
            expected);
  // Boundaries: last historical value < first analysis value (values are the
  // timestamps themselves).
  if (!view.historical.empty() && !view.analysis.empty()) {
    EXPECT_LT(view.historical.back(), view.analysis.front());
  }
  if (!view.analysis.empty() && !view.extended.empty()) {
    EXPECT_LT(view.analysis.back(), view.extended.front());
  }
}

INSTANTIATE_TEST_SUITE_P(Specs, WindowPartitionTest, ::testing::Values(0, 1, 2));

}  // namespace
}  // namespace fbdetect
