// End-to-end integration tests: fleet simulator -> profiler -> TSDB ->
// full Fig. 6 pipeline, scored against injected ground truth.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/common/random.h"
#include "src/core/change_point_stage.h"
#include "src/core/pipeline.h"
#include "src/core/scan_view.h"
#include "src/core/went_away.h"
#include "src/core/workload_config.h"
#include "src/fleet/fleet.h"
#include "src/fleet/scenario.h"
#include "src/observe/telemetry.h"
#include "src/tsdb/database.h"
#include "tests/batch_writes.h"
#include "tests/stage_helpers.h"

namespace fbdetect {
namespace {

// A compact single-service world with one planted regression, one cost
// shift, and one transient. Small enough to run in seconds.
struct World {
  FleetSimulator fleet;
  ServiceSimulator* service = nullptr;
  std::string regressed_subroutine;
  std::string shift_target;
  std::string shift_source;
  TimePoint regression_at = 0;
  int64_t culprit_commit = -1;

  // 4 days of data at 10-minute ticks.
  static constexpr Duration kDuration = Days(4);

  explicit World(uint64_t seed, double regression_magnitude = 0.4) {
    ServiceConfig config;
    config.name = "svc";
    config.num_servers = 200;
    config.call_graph.num_subroutines = 80;
    config.sampling.samples_per_bucket = 2000000;
    config.sampling.bucket_width = Minutes(10);
    config.tick = Minutes(10);
    config.num_seasonal_subroutines = 10;
    config.seasonal_mix_amplitude = 0.10;
    config.seed = seed;
    service = fleet.AddService(config);

    // Targets: mid-weight LEAF subroutines (self cost == subtree cost, so
    // injected relative changes translate 1:1 into gCPU changes).
    const CallGraph& graph = service->graph();
    const std::vector<double> reach = graph.ReachProbabilities();
    std::vector<NodeId> mid;
    for (size_t i = 0; i < reach.size(); ++i) {
      if (reach[i] > 0.003 && reach[i] < 0.10 &&
          graph.edges(static_cast<NodeId>(i)).empty()) {
        mid.push_back(static_cast<NodeId>(i));
      }
    }
    FBD_CHECK(mid.size() >= 3);
    regressed_subroutine = graph.node(mid[0]).name;
    shift_target = graph.node(mid[1]).name;
    shift_source = graph.node(mid[2]).name;

    regression_at = Days(2) + Hours(13);

    // True regression with a culprit commit.
    InjectedEvent regression;
    regression.kind = EventKind::kStepRegression;
    regression.service = "svc";
    regression.subroutine = regressed_subroutine;
    regression.start = regression_at;
    regression.magnitude = regression_magnitude;
    Commit commit;
    commit.time = regression_at - Minutes(20);
    commit.title = "Add extra processing to " + regressed_subroutine;
    commit.description = "Expands validation in " + regressed_subroutine;
    commit.touched_subroutines = {regressed_subroutine};
    fleet.InjectEvent(regression, &commit);
    culprit_commit = fleet.ground_truth().back().commit_id;

    // Cost shift (same time frame, different subroutines).
    InjectedEvent shift;
    shift.kind = EventKind::kCostShift;
    shift.service = "svc";
    shift.subroutine = shift_target;
    shift.shift_source = shift_source;
    shift.start = Days(2) + Hours(20);
    shift.magnitude = 0.8;
    Commit shift_commit;
    shift_commit.time = shift.start - Minutes(20);
    shift_commit.title = "Refactor " + shift_source;
    shift_commit.description = "Moves code from " + shift_source + " to " + shift_target;
    shift_commit.touched_subroutines = {shift_source, shift_target};
    fleet.InjectEvent(shift, &shift_commit);

    // Transient load spike.
    InjectedEvent transient;
    transient.kind = EventKind::kTransientIssue;
    transient.transient_kind = TransientKind::kLoadSpike;
    transient.service = "svc";
    transient.start = Days(3) + Hours(2);
    transient.duration = Hours(1);
    transient.magnitude = 0.3;
    fleet.InjectEvent(transient);

    fleet.Run(0, kDuration);
  }

  PipelineOptions Options() const {
    PipelineOptions options;
    options.detection.threshold = 0.0005;
    options.detection.windows.historical = Days(2);
    options.detection.windows.analysis = Hours(4);
    options.detection.windows.extended = Hours(2);
    options.detection.rerun_interval = Hours(4);
    return options;
  }
};

TEST(PipelineIntegrationTest, DetectsInjectedRegressionWithRootCause) {
  World world(1);
  CallGraphCodeInfo code_info(&world.service->graph());
  Pipeline pipeline(&world.fleet.db(), &world.fleet.change_log(), &code_info,
                    world.Options());
  const std::vector<Regression> reports =
      pipeline.RunPeriod("svc", Days(2), World::kDuration);

  // The injected regression must be among the reports.
  const Regression* hit = nullptr;
  for (const Regression& report : reports) {
    if (report.metric.entity == world.regressed_subroutine) {
      hit = &report;
      break;
    }
  }
  ASSERT_NE(hit, nullptr) << "injected regression was not reported";
  EXPECT_NEAR(static_cast<double>(hit->change_time),
              static_cast<double>(world.regression_at), static_cast<double>(Hours(3)));
  // Root cause: the culprit commit should rank in the top three.
  bool culprit_found = false;
  for (const RankedCause& cause : hit->root_causes) {
    if (cause.commit_id == world.culprit_commit) {
      culprit_found = true;
    }
  }
  EXPECT_TRUE(culprit_found);
}

TEST(PipelineIntegrationTest, FunnelMonotonicallyDecreases) {
  World world(2);
  CallGraphCodeInfo code_info(&world.service->graph());
  Pipeline pipeline(&world.fleet.db(), &world.fleet.change_log(), &code_info,
                    world.Options());
  pipeline.RunPeriod("svc", Days(2), World::kDuration);

  const FunnelStats& funnel = pipeline.short_term_funnel();
  EXPECT_GT(funnel.change_points, 0u);
  EXPECT_LE(funnel.after_went_away, funnel.change_points);
  EXPECT_LE(funnel.after_seasonality, funnel.after_went_away);
  EXPECT_LE(funnel.after_threshold, funnel.after_seasonality);
  EXPECT_LE(funnel.after_same_merger, funnel.after_threshold);
  EXPECT_LE(funnel.after_som_dedup, funnel.after_same_merger);
  EXPECT_LE(funnel.after_cost_shift, funnel.after_som_dedup);
  EXPECT_LE(funnel.after_pairwise, funnel.after_cost_shift);
}

uint64_t CounterValue(const Pipeline& pipeline, const std::string& name) {
  for (const CounterSnapshot& counter : pipeline.telemetry().SnapshotCounters()) {
    if (counter.name == name) {
      return counter.value;
    }
  }
  ADD_FAILURE() << "counter not registered: " << name;
  return 0;
}

// AdServing's preset turns the cost-shift stage off (Table 3): each path's
// cost-shift row then repeats its SOMDedup row, and the stage counts nothing.
TEST(PipelineIntegrationTest, CostShiftOffFunnelRepeatsSomDedupRow) {
  World world(2);
  CallGraphCodeInfo code_info(&world.service->graph());
  PipelineOptions options = world.Options();
  options.enable_cost_shift = false;
  Pipeline pipeline(&world.fleet.db(), &world.fleet.change_log(), &code_info, options);
  pipeline.RunPeriod("svc", Days(2), World::kDuration);

  const FunnelStats short_funnel = pipeline.short_term_funnel();
  const FunnelStats long_funnel = pipeline.long_term_funnel();
  EXPECT_GT(short_funnel.after_som_dedup, 0u);
  EXPECT_GT(long_funnel.after_som_dedup, 0u);
  EXPECT_EQ(short_funnel.after_cost_shift, short_funnel.after_som_dedup);
  EXPECT_EQ(long_funnel.after_cost_shift, long_funnel.after_som_dedup);
  EXPECT_EQ(CounterValue(pipeline, "pipeline.stage.cost_shift.in"), 0u);
  EXPECT_EQ(CounterValue(pipeline, "pipeline.stage.cost_shift.out"), 0u);
  EXPECT_EQ(CounterValue(pipeline, "pipeline.stage.pairwise_dedup.in"),
            CounterValue(pipeline, "pipeline.stage.som_dedup.out"));
}

TEST(PipelineIntegrationTest, WentAwayFiltersTransients) {
  World world(3);
  CallGraphCodeInfo code_info(&world.service->graph());
  Pipeline pipeline(&world.fleet.db(), &world.fleet.change_log(), &code_info,
                    world.Options());
  pipeline.RunPeriod("svc", Days(2), World::kDuration);
  const FunnelStats& funnel = pipeline.short_term_funnel();
  // The went-away detector is the paper's workhorse: it must filter a large
  // share of raw change points (99.7% in production; the synthetic world is
  // cleaner, so require at least half).
  ASSERT_GT(funnel.change_points, 0u);
  EXPECT_LT(static_cast<double>(funnel.after_went_away),
            0.5 * static_cast<double>(funnel.change_points));
}

TEST(PipelineIntegrationTest, ReportsAreDeduplicated) {
  World world(4);
  CallGraphCodeInfo code_info(&world.service->graph());
  Pipeline pipeline(&world.fleet.db(), &world.fleet.change_log(), &code_info,
                    world.Options());
  const std::vector<Regression> reports =
      pipeline.RunPeriod("svc", Days(2), World::kDuration);
  // No two reports may target the same subroutine at (nearly) the same time.
  for (size_t i = 0; i < reports.size(); ++i) {
    for (size_t j = i + 1; j < reports.size(); ++j) {
      if (reports[i].metric == reports[j].metric) {
        EXPECT_GT(std::llabs(static_cast<long long>(reports[i].change_time -
                                                    reports[j].change_time)),
                  static_cast<long long>(Hours(4)));
      }
    }
  }
}

TEST(PipelineIntegrationTest, RunWithoutChangeLogStillDetects) {
  World world(5);
  Pipeline pipeline(&world.fleet.db(), nullptr, nullptr, world.Options());
  const std::vector<Regression> reports =
      pipeline.RunPeriod("svc", Days(2), World::kDuration);
  bool found = false;
  for (const Regression& report : reports) {
    if (report.metric.entity == world.regressed_subroutine) {
      found = true;
      EXPECT_TRUE(report.root_causes.empty());  // No change log, no causes.
    }
  }
  EXPECT_TRUE(found);
}

TEST(PipelineIntegrationTest, EmptyServiceYieldsNothing) {
  TimeSeriesDatabase db;
  PipelineOptions options;
  Pipeline pipeline(&db, nullptr, nullptr, options);
  EXPECT_TRUE(pipeline.RunAt("ghost", Days(1)).empty());
  EXPECT_EQ(pipeline.short_term_funnel().change_points, 0u);
}

// The pipeline scans every kind /ingest carries, not only the kinds the fleet
// simulator emits. §3's endpoint cost, per-data-type I/O and
// metadata-annotated gCPU are written straight into the database here: in
// each family one series steps up among flat siblings.
TEST(PipelineIntegrationTest, ReportsTheSection3KindsTheServiceAccepts) {
  constexpr TimePoint kStepAt = Days(2) + Hours(8);
  TimeSeriesDatabase db;
  // Three days at 10-minute ticks of `base` plus Normal(0, noise), with `step`
  // added from kStepAt on.
  auto write = [&db](const MetricId& id, double base, double noise, double step,
                     uint64_t seed) {
    Rng rng(seed);
    TimeSeries series;
    for (TimePoint t = 0; t < Days(3); t += Minutes(10)) {
      series.Append(t, base + (t >= kStepAt ? step : 0.0) + rng.Normal(0.0, noise));
    }
    CommitSeries(db, id, series);
  };
  auto run = [&db](const std::string& service, double threshold, ThresholdMode mode) {
    PipelineOptions options;
    options.detection.threshold = threshold;
    options.detection.threshold_mode = mode;
    options.detection.windows.historical = Days(2);
    options.detection.windows.analysis = Hours(4);
    options.detection.windows.extended = Hours(2);
    options.detection.rerun_interval = Hours(4);
    options.detection.enable_long_term = false;
    Pipeline pipeline(&db, nullptr, nullptr, options);
    return pipeline.RunPeriod(service, Days(2), Days(3));
  };

  // Endpoint cost in arbitrary cost units: endpoint_0 rises 30%.
  const MetricId endpoint{"web", MetricKind::kEndpointCost, "endpoint_0", ""};
  for (int e = 0; e < 3; ++e) {
    const double base = 40.0 * (e + 1);
    write({"web", MetricKind::kEndpointCost, "endpoint_" + std::to_string(e), ""}, base,
          0.01 * base, e == 0 ? 0.3 * base : 0.0, 100 + e);
  }
  bool endpoint_reported = false;
  for (const Regression& report : run("web", 0.02, ThresholdMode::kRelative)) {
    if (report.metric.kind == MetricKind::kEndpointCost) {
      EXPECT_GT(report.relative_delta, 0.02) << report.metric.ToString();
      endpoint_reported = endpoint_reported || report.metric == endpoint;
    }
  }
  EXPECT_TRUE(endpoint_reported);

  // TAO-style I/O per data type: only "comment" rises, by 20%.
  const std::vector<std::string> data_types = {"user", "post", "comment", "like"};
  for (size_t i = 0; i < data_types.size(); ++i) {
    write({"tao_like", MetricKind::kIoPerDataType, data_types[i], ""}, 25000.0, 500.0,
          data_types[i] == "comment" ? 5000.0 : 0.0, 200 + i);
  }
  bool io_reported = false;
  for (const Regression& report : run("tao_like", 0.05, ThresholdMode::kRelative)) {
    if (report.metric.kind == MetricKind::kIoPerDataType) {
      io_reported = true;
      EXPECT_EQ(report.metric.entity, "comment");
    }
  }
  EXPECT_TRUE(io_reported);

  // SetFrameMetadata-annotated gCPU, one series per annotation value:
  // feature/group2 gains 0.002 of gCPU.
  for (int g = 0; g < 4; ++g) {
    write({"annotated", MetricKind::kGcpu, "", "feature/group" + std::to_string(g)},
          0.01 * (g + 1), 0.00007, g == 2 ? 0.002 : 0.0, 300 + g);
  }
  bool metadata_reported = false;
  for (const Regression& report : run("annotated", 0.0001, ThresholdMode::kAbsolute)) {
    metadata_reported = metadata_reported || report.metric.metadata == "feature/group2";
  }
  EXPECT_TRUE(metadata_reported);
}

TEST(PipelineIntegrationTest, ParallelScanMatchesSerial) {
  World world(6);
  CallGraphCodeInfo code_info(&world.service->graph());

  PipelineOptions serial_options = world.Options();
  serial_options.scan_threads = 1;
  Pipeline serial(&world.fleet.db(), &world.fleet.change_log(), &code_info, serial_options);
  const std::vector<Regression> serial_reports =
      serial.RunPeriod("svc", Days(2), World::kDuration);

  PipelineOptions parallel_options = world.Options();
  parallel_options.scan_threads = 4;
  Pipeline parallel(&world.fleet.db(), &world.fleet.change_log(), &code_info,
                    parallel_options);
  const std::vector<Regression> parallel_reports =
      parallel.RunPeriod("svc", Days(2), World::kDuration);

  ASSERT_EQ(serial_reports.size(), parallel_reports.size());
  for (size_t i = 0; i < serial_reports.size(); ++i) {
    EXPECT_EQ(serial_reports[i].metric, parallel_reports[i].metric);
    EXPECT_EQ(serial_reports[i].change_time, parallel_reports[i].change_time);
    EXPECT_DOUBLE_EQ(serial_reports[i].delta, parallel_reports[i].delta);
  }
  EXPECT_EQ(serial.short_term_funnel().change_points,
            parallel.short_term_funnel().change_points);
  EXPECT_EQ(serial.short_term_funnel().after_pairwise,
            parallel.short_term_funnel().after_pairwise);
  EXPECT_EQ(serial.long_term_funnel().change_points,
            parallel.long_term_funnel().change_points);
}

TEST(PipelineIntegrationTest, DefaultBackendMatchesExplicitCusumEmAcrossThreadCounts) {
  // The detector choice must not perturb the default path: a pipeline left
  // on the default detector and one explicitly configured with kCusumEm
  // produce byte-identical reports, at every scan-thread count.
  World world(7);
  CallGraphCodeInfo code_info(&world.service->graph());

  PipelineOptions default_options = world.Options();
  default_options.scan_threads = 1;
  Pipeline default_pipeline(&world.fleet.db(), &world.fleet.change_log(), &code_info,
                            default_options);
  const std::vector<Regression> baseline =
      default_pipeline.RunPeriod("svc", Days(2), World::kDuration);
  EXPECT_FALSE(baseline.empty());

  for (const int threads : {1, 2, 8}) {
    PipelineOptions options = world.Options();
    options.scan_threads = threads;
    options.detection.change_point_detector = ChangePointDetector::kCusumEm;
    Pipeline pipeline(&world.fleet.db(), &world.fleet.change_log(), &code_info, options);
    const std::vector<Regression> reports =
        pipeline.RunPeriod("svc", Days(2), World::kDuration);
    ASSERT_EQ(reports.size(), baseline.size()) << "threads=" << threads;
    for (size_t i = 0; i < reports.size(); ++i) {
      EXPECT_EQ(reports[i].metric, baseline[i].metric) << "threads=" << threads;
      EXPECT_EQ(reports[i].change_time, baseline[i].change_time) << "threads=" << threads;
      // Bitwise equality, not EXPECT_DOUBLE_EQ: the guarantee is identity.
      EXPECT_EQ(reports[i].delta, baseline[i].delta) << "threads=" << threads;
      EXPECT_EQ(reports[i].p_value, baseline[i].p_value) << "threads=" << threads;
    }
    EXPECT_EQ(pipeline.short_term_funnel().change_points,
              default_pipeline.short_term_funnel().change_points)
        << "threads=" << threads;
  }
}

// A series whose went-away verdict hinges on the length of the "previous
// day" (§5.2.2): at a 10-minute tick, 16 spikes at 0.999 sit 24h-12h before
// the analysis window, so the trailing 144-point day has its p90 above the
// 0.96/0.99 regressed level while the trailing 72 points (half a day) do not.
// The rest of the history is spread over [0, 0.9), and the step lands
// exactly at the analysis window start.
struct PreviousDaySeries {
  static constexpr Duration kTick = Minutes(10);
  static constexpr size_t kHistorical = 432;  // 3 days.
  static constexpr size_t kAnalysis = 36;     // 6 hours.
  static constexpr TimePoint kAsOf =
      static_cast<TimePoint>(kHistorical + kAnalysis) * kTick;

  static DetectionConfig Config() {
    DetectionConfig config;
    config.windows.historical = Days(3);
    config.windows.analysis = Hours(6);
    config.windows.extended = 0;
    config.enable_long_term = false;
    return config;
  }

  // With `drop_analysis_sample` set, analysis sample 1 is missing, which
  // doubles the first analysis gap.
  static TimeSeries Build(bool drop_analysis_sample) {
    TimeSeries series;
    for (size_t i = 0; i < kHistorical + kAnalysis; ++i) {
      if (drop_analysis_sample && i == kHistorical + 1) {
        continue;
      }
      double value;
      if (i >= kHistorical) {
        value = i % 2 == 0 ? 0.96 : 0.99;
      } else if (i >= kHistorical - 144 && i < kHistorical - 144 + 16) {
        value = 0.999;
      } else {
        const double golden = 0.6180339887498949;
        value = 0.9 * std::fmod(static_cast<double>(i) * golden, 1.0);
      }
      series.Append(static_cast<TimePoint>(i) * kTick, value);
    }
    return series;
  }
};

TEST(PipelineIntegrationTest, WentAwayPreviousDayIgnoresADroppedAnalysisSample) {
  const DetectionConfig config = PreviousDaySeries::Config();
  const MetricId metric{"svc", MetricKind::kGcpu, "leaf", ""};

  // The series discriminates: a full previous day (144 points) drops the
  // candidate, half a day (72 points) would keep it.
  const TimeSeries full = PreviousDaySeries::Build(/*drop_analysis_sample=*/false);
  std::vector<double> scratch;
  const ScanView view =
      OrientedView(full, PreviousDaySeries::kAsOf, config.windows, metric.kind, scratch);
  const std::optional<ScanCandidate> candidate = ChangePointStage(config).DetectCandidate(view);
  ASSERT_TRUE(candidate.has_value());
  const WentAwayDetector went_away;
  EXPECT_FALSE(went_away.Evaluate(view, *candidate, 144).keep);
  EXPECT_TRUE(went_away.Evaluate(view, *candidate, 72).keep);

  // The scan must reach the same verdict with and without analysis sample 1:
  // one dropped sample must not halve the previous day.
  for (const bool drop : {false, true}) {
    TimeSeriesDatabase db;
    CommitSeries(db, metric, PreviousDaySeries::Build(drop));
    PipelineOptions options;
    options.detection = config;
    Pipeline pipeline(&db, nullptr, nullptr, options);
    const SeriesVerdicts verdicts = pipeline.ScanSeries(metric, PreviousDaySeries::kAsOf);
    EXPECT_TRUE(verdicts.change_point.has_value()) << "drop=" << drop;
    ASSERT_TRUE(verdicts.went_away.has_value()) << "drop=" << drop;
    EXPECT_FALSE(verdicts.went_away->keep) << "drop=" << drop;
    EXPECT_TRUE(verdicts.survivors.empty()) << "drop=" << drop;
  }
}

// ---------------------------------------------------------------------------
// Pipeline::ScanSeries: one series through the scan that RunAt runs.
// ---------------------------------------------------------------------------

// Whether ScanMetric counts into the instrument: the scan, the sanitizer and
// the per-series stages, not the funnel.
bool IsScanCounter(const std::string& name) {
  for (const char* prefix :
       {"pipeline.scan.", "pipeline.sanitizer.", "pipeline.stage.change_point.",
        "pipeline.stage.went_away.", "pipeline.stage.seasonality.",
        "pipeline.stage.threshold.", "pipeline.stage.long_term."}) {
    if (name.rfind(prefix, 0) == 0) {
      return true;
    }
  }
  return false;
}

// Tallies of ScanSeries verdicts, one per RunAt counter they reconcile with.
struct VerdictTallies {
  uint64_t change_points = 0;
  uint64_t went_away_kept = 0;
  uint64_t seasonality_kept = 0;
  uint64_t threshold_passed = 0;
  uint64_t long_term_detected = 0;
  uint64_t quarantined = 0;
  uint64_t survivors = 0;

  void Add(const SeriesVerdicts& verdicts) {
    change_points += verdicts.change_point.has_value() ? 1 : 0;
    went_away_kept += verdicts.went_away.has_value() && verdicts.went_away->keep ? 1 : 0;
    seasonality_kept +=
        verdicts.seasonality.has_value() && !verdicts.seasonality->seasonal_filtered ? 1 : 0;
    threshold_passed += verdicts.threshold.value_or(false) ? 1 : 0;
    long_term_detected += verdicts.long_term_detected ? 1 : 0;
    quarantined += verdicts.quarantined ? 1 : 0;
    survivors += verdicts.survivors.size();
  }
};

TEST(ScanSeriesTest, VerdictTalliesReconcileWithRunAtCounters) {
  for (const uint64_t seed : {1u, 2u}) {
    World world(seed);
    CallGraphCodeInfo code_info(&world.service->graph());
    const PipelineOptions options = world.Options();
    const std::vector<MetricId> ids = world.fleet.db().ListMetrics("svc");
    const Duration interval = options.detection.rerun_interval;

    // Every metric at every re-run's as_of, one series at a time.
    Pipeline by_series(&world.fleet.db(), &world.fleet.change_log(), &code_info, options);
    VerdictTallies tallies;
    for (TimePoint as_of = Days(2) + interval; as_of <= World::kDuration; as_of += interval) {
      for (const MetricId& id : ids) {
        tallies.Add(by_series.ScanSeries(id, as_of));
      }
    }
    EXPECT_GT(tallies.change_points, 0u) << "seed=" << seed;
    EXPECT_GT(tallies.survivors, 0u) << "seed=" << seed;
    EXPECT_EQ(CounterValue(by_series, "pipeline.runs"), 0u) << "seed=" << seed;
    EXPECT_EQ(CounterValue(by_series, "pipeline.stage.fingerprint.in"), 0u) << "seed=" << seed;

    for (const int threads : {1, 4}) {
      const std::string label = "seed=" + std::to_string(seed) + " threads=" +
                                std::to_string(threads);
      PipelineOptions threaded = options;
      threaded.scan_threads = threads;
      Pipeline run_at(&world.fleet.db(), &world.fleet.change_log(), &code_info, threaded);
      run_at.RunPeriod("svc", Days(2), World::kDuration);

      EXPECT_EQ(tallies.change_points, CounterValue(run_at, "pipeline.stage.change_point.out"))
          << label;
      EXPECT_EQ(tallies.went_away_kept, CounterValue(run_at, "pipeline.stage.went_away.out"))
          << label;
      EXPECT_EQ(tallies.seasonality_kept, CounterValue(run_at, "pipeline.stage.seasonality.out"))
          << label;
      EXPECT_EQ(tallies.threshold_passed, CounterValue(run_at, "pipeline.stage.threshold.out"))
          << label;
      EXPECT_EQ(tallies.long_term_detected,
                CounterValue(run_at, "pipeline.stage.long_term.detected"))
          << label;
      EXPECT_EQ(tallies.quarantined,
                CounterValue(run_at, "pipeline.scan.windows_quarantined") +
                    CounterValue(run_at, "pipeline.scan.series_decode_failures") +
                    CounterValue(run_at, "pipeline.scan.detector_exceptions"))
          << label;
      EXPECT_EQ(tallies.survivors, CounterValue(run_at, "pipeline.stage.fingerprint.in"))
          << label;

      // The same effect on every scan instrument and on the quarantine report.
      for (const CounterSnapshot& counter : run_at.telemetry().SnapshotCounters()) {
        if (IsScanCounter(counter.name)) {
          EXPECT_EQ(CounterValue(by_series, counter.name), counter.value)
              << label << " " << counter.name;
        }
      }
      EXPECT_EQ(by_series.quarantine_report().records.size(),
                run_at.quarantine_report().records.size())
          << label;
    }
  }
}

// A gCPU series with a clean step inside the analysis window, at 10-minute
// ticks over [0, kAsOf).
struct SteppedSeries {
  static constexpr Duration kTick = Minutes(10);
  static constexpr TimePoint kAsOf = Days(2) + Hours(6);

  static PipelineOptions Options() {
    PipelineOptions options;
    options.detection.threshold = 0.001;
    options.detection.windows.historical = Days(2);
    options.detection.windows.analysis = Hours(4);
    options.detection.windows.extended = Hours(2);
    return options;
  }

  static TimeSeries Build() {
    Rng rng(8);
    TimeSeries series;
    for (TimePoint t = 0; t < kAsOf; t += kTick) {
      series.Append(t, (t >= kAsOf - Hours(5) ? 0.060 : 0.050) + rng.Normal(0.0, 0.001));
    }
    return series;
  }
};

void ExpectNoStageRan(const SeriesVerdicts& verdicts) {
  EXPECT_FALSE(verdicts.change_point.has_value());
  EXPECT_FALSE(verdicts.went_away.has_value());
  EXPECT_FALSE(verdicts.seasonality.has_value());
  EXPECT_FALSE(verdicts.threshold.has_value());
  EXPECT_FALSE(verdicts.long_term_detected);
  EXPECT_TRUE(verdicts.survivors.empty());
}

TEST(ScanSeriesTest, AbsentSeriesIsUnobservedAndRunsNoStage) {
  TimeSeriesDatabase db;
  CommitSeries(db, {"svc", MetricKind::kGcpu, "present", ""}, SteppedSeries::Build());
  Pipeline pipeline(&db, nullptr, nullptr, SteppedSeries::Options());
  const SeriesVerdicts verdicts =
      pipeline.ScanSeries({"svc", MetricKind::kGcpu, "absent", ""}, SteppedSeries::kAsOf);
  EXPECT_FALSE(verdicts.quality.observed);
  EXPECT_FALSE(verdicts.quarantined);
  ExpectNoStageRan(verdicts);
  EXPECT_EQ(CounterValue(pipeline, "pipeline.scan.series_in"), 1u);
  EXPECT_EQ(CounterValue(pipeline, "pipeline.scan.series_no_data"), 1u);
  EXPECT_EQ(CounterValue(pipeline, "pipeline.stage.change_point.in"), 0u);
  EXPECT_TRUE(pipeline.quarantine_report().records.empty());
}

TEST(ScanSeriesTest, OneNanQuarantinesTheWindowBeforeAnyStage) {
  const MetricId metric{"svc", MetricKind::kGcpu, "leaf", ""};
  const TimeSeries clean = SteppedSeries::Build();
  TimeSeries dirty;
  for (size_t i = 0; i < clean.size(); ++i) {
    dirty.Append(clean.timestamps()[i], i == 100 ? std::numeric_limits<double>::quiet_NaN()
                                                 : clean.values()[i]);
  }
  TimeSeriesDatabase db;
  CommitSeries(db, metric, dirty);
  Pipeline pipeline(&db, nullptr, nullptr, SteppedSeries::Options());
  const SeriesVerdicts verdicts = pipeline.ScanSeries(metric, SteppedSeries::kAsOf);
  EXPECT_TRUE(verdicts.quality.observed);
  EXPECT_EQ(verdicts.quality.verdict, QualityVerdict::kCorrupt);
  EXPECT_EQ(verdicts.quality.non_finite, 1u);
  EXPECT_TRUE(verdicts.quarantined);
  ExpectNoStageRan(verdicts);
  // The sanitizer withheld the window: no detector saw it.
  EXPECT_EQ(CounterValue(pipeline, "pipeline.scan.windows_quarantined"), 1u);
  EXPECT_EQ(CounterValue(pipeline, "pipeline.stage.change_point.in"), 0u);
  const QuarantineReport report = pipeline.quarantine_report();
  ASSERT_EQ(report.records.size(), 1u);
  EXPECT_EQ(report.records[0].metric, metric);
  EXPECT_EQ(report.records[0].windows_quarantined, 1u);
  EXPECT_EQ(report.records[0].non_finite, 1u);
}

TEST(ScanSeriesTest, CleanStepSetsEveryStageAndSurvivesAsMaterialized) {
  const MetricId metric{"svc", MetricKind::kGcpu, "leaf", ""};
  const TimeSeries series = SteppedSeries::Build();
  TimeSeriesDatabase db;
  CommitSeries(db, metric, series);
  const PipelineOptions options = SteppedSeries::Options();
  Pipeline pipeline(&db, nullptr, nullptr, options);
  const SeriesVerdicts verdicts = pipeline.ScanSeries(metric, SteppedSeries::kAsOf);

  EXPECT_TRUE(verdicts.quality.observed);
  EXPECT_EQ(verdicts.quality.verdict, QualityVerdict::kOk);
  EXPECT_FALSE(verdicts.quarantined);
  ASSERT_TRUE(verdicts.change_point.has_value());
  ASSERT_TRUE(verdicts.went_away.has_value());
  EXPECT_TRUE(verdicts.went_away->keep);
  ASSERT_TRUE(verdicts.seasonality.has_value());
  EXPECT_FALSE(verdicts.seasonality->seasonal_filtered);
  ASSERT_TRUE(verdicts.threshold.has_value());
  EXPECT_TRUE(*verdicts.threshold);

  // The short-term survivor comes first and is the change-point candidate
  // materialized over the scan's view, bit for bit.
  ASSERT_FALSE(verdicts.survivors.empty());
  const Regression& survivor = verdicts.survivors.front();
  EXPECT_FALSE(survivor.long_term);
  std::vector<double> scratch;
  const Regression expected = MaterializeRegression(
      metric,
      OrientedView(series, SteppedSeries::kAsOf, options.detection.windows, metric.kind,
                   scratch),
      *verdicts.change_point);
  EXPECT_EQ(survivor.metric, expected.metric);
  EXPECT_EQ(survivor.detected_at, expected.detected_at);
  EXPECT_EQ(survivor.change_time, expected.change_time);
  EXPECT_EQ(survivor.change_index, expected.change_index);
  EXPECT_EQ(survivor.extended_size, expected.extended_size);
  EXPECT_EQ(survivor.p_value, expected.p_value);
  EXPECT_EQ(survivor.baseline_mean, expected.baseline_mean);
  EXPECT_EQ(survivor.regressed_mean, expected.regressed_mean);
  EXPECT_EQ(survivor.delta, expected.delta);
  EXPECT_EQ(survivor.relative_delta, expected.relative_delta);
  EXPECT_EQ(survivor.historical, expected.historical);
  EXPECT_EQ(survivor.analysis, expected.analysis);
  EXPECT_EQ(survivor.analysis_timestamps, expected.analysis_timestamps);
  EXPECT_TRUE(survivor.candidate_root_causes.empty());  // No change log.
}

TEST(WorkloadConfigTest, AllTwelveTable1Presets) {
  const std::vector<DetectionConfig> configs = AllTable1Configs();
  ASSERT_EQ(configs.size(), 12u);
  // Spot-check the paper's values.
  EXPECT_EQ(configs[0].name, "FrontFaaS (large)");
  EXPECT_DOUBLE_EQ(configs[0].threshold, 0.03);
  EXPECT_EQ(configs[0].rerun_interval, Minutes(30));
  EXPECT_EQ(configs[0].windows.historical, Days(10));
  EXPECT_EQ(configs[0].windows.analysis, Hours(3));
  EXPECT_EQ(configs[0].windows.extended, 0);

  EXPECT_EQ(configs[1].name, "FrontFaaS (small)");
  EXPECT_DOUBLE_EQ(configs[1].threshold, 0.00005);  // 0.005% absolute.
  EXPECT_EQ(configs[1].windows.extended, Hours(6));

  EXPECT_EQ(configs[8].name, "Invoicer (short)");
  EXPECT_DOUBLE_EQ(configs[8].threshold, 0.005);  // 0.5%.
  EXPECT_EQ(configs[8].windows.historical, Days(14));

  EXPECT_EQ(configs[9].threshold_mode, ThresholdMode::kRelative);
  EXPECT_DOUBLE_EQ(configs[9].threshold, 0.05);  // 5% relative.
  EXPECT_EQ(configs[11].name, "CT-demand");
  EXPECT_EQ(configs[11].windows.extended, 0);

  for (const DetectionConfig& config : configs) {
    EXPECT_GT(config.threshold, 0.0) << config.name;
    EXPECT_GT(config.rerun_interval, 0) << config.name;
    EXPECT_GT(config.windows.historical, config.windows.analysis) << config.name;
  }
}

}  // namespace
}  // namespace fbdetect
