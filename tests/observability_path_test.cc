// End-to-end acceptance tests for the pipeline's self-observability layer
// (DESIGN.md §12): deterministic counters must be byte-identical for any
// scan_threads value, per-stage attrition counters must reconcile exactly
// with the funnel, survivors, and quarantine totals. Plus unit tests for the
// registry, histogram, StageTimer, and export formats.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/pipeline.h"
#include "src/fleet/fault_injector.h"
#include "src/fleet/fleet.h"
#include "src/fleet/service.h"
#include "src/observe/telemetry.h"
#include "src/observe/telemetry_export.h"
#include "src/report/report.h"
#include "src/tsdb/database.h"

namespace fbdetect {
namespace {

// ---------------------------------------------------------------------------
// Instrument unit tests.
// ---------------------------------------------------------------------------

TEST(TelemetryHistogramTest, BucketsAreLogSpaced) {
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(1023), 10u);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11u);
  // Everything past the covered range lands in the last bucket.
  EXPECT_EQ(Histogram::BucketIndex(UINT64_MAX), Histogram::kNumBuckets - 1);
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(3), 7u);
  EXPECT_EQ(Histogram::BucketUpperBound(Histogram::kNumBuckets - 1), UINT64_MAX);

  Histogram histogram;
  histogram.Record(0);
  histogram.Record(5);
  histogram.Record(5);
  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_EQ(histogram.sum(), 10u);
  EXPECT_EQ(histogram.bucket(0), 1u);
  EXPECT_EQ(histogram.bucket(3), 2u);
}

TEST(TelemetryRegistryTest, HandlesAreStableAndSnapshotsAreNameSorted) {
  TelemetryRegistry registry;
  Counter* b = registry.GetCounter("b.count");
  Counter* a = registry.GetCounter("a.count", CounterStability::kRuntime);
  Histogram* h = registry.GetHistogram("z.wall_ns");
  EXPECT_EQ(registry.GetCounter("b.count"), b);  // Same name, same handle.
  EXPECT_EQ(registry.GetHistogram("z.wall_ns"), h);
  b->Add(3);
  a->Increment();
  h->Record(100);

  const std::vector<CounterSnapshot> counters = registry.SnapshotCounters();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].name, "a.count");
  EXPECT_EQ(counters[0].value, 1u);
  EXPECT_EQ(counters[0].stability, CounterStability::kRuntime);
  EXPECT_EQ(counters[1].name, "b.count");
  EXPECT_EQ(counters[1].value, 3u);
  const std::vector<HistogramSnapshot> histograms = registry.SnapshotHistograms();
  ASSERT_EQ(histograms.size(), 1u);
  EXPECT_EQ(histograms[0].name, "z.wall_ns");
  EXPECT_EQ(histograms[0].count, 1u);
}

TEST(TelemetryRegistryTest, ConcurrentRegistrationIsSafeAndConverges) {
  TelemetryRegistry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry] {
      for (int i = 0; i < 64; ++i) {
        registry.GetCounter("shared.counter." + std::to_string(i % 16))->Increment();
        registry.GetHistogram("shared.histogram")->Record(1);
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  EXPECT_EQ(registry.counter_count(), 16u);
  EXPECT_EQ(registry.histogram_count(), 1u);
  uint64_t total = 0;
  for (const CounterSnapshot& counter : registry.SnapshotCounters()) {
    total += counter.value;
  }
  EXPECT_EQ(total, static_cast<uint64_t>(kThreads) * 64u);
  EXPECT_EQ(registry.GetHistogram("shared.histogram")->count(),
            static_cast<uint64_t>(kThreads) * 64u);
}

TEST(StageTimerTest, RecordsIntoHistogramsAndNullIsFree) {
  Histogram wall;
  Histogram cpu;
  {
    StageTimer timer(&wall, &cpu);
    volatile uint64_t sink = 0;
    for (int i = 0; i < 10000; ++i) {
      sink = sink + static_cast<uint64_t>(i);
    }
  }
  EXPECT_EQ(wall.count(), 1u);
  EXPECT_EQ(cpu.count(), 1u);
  { StageTimer disabled(nullptr, nullptr); }
  EXPECT_EQ(wall.count(), 1u);  // Null timers record nothing anywhere.
}

TEST(TelemetryExportTest, JsonSeparatesDeterministicFromRuntime) {
  TelemetryRegistry registry;
  registry.GetCounter("stage.in")->Add(7);
  registry.GetCounter("pool.batches", CounterStability::kRuntime)->Add(3);
  registry.GetHistogram("stage.wall_ns")->Record(1000);

  const std::string deterministic = RenderTelemetryJson({&registry}, /*include_runtime=*/false);
  EXPECT_NE(deterministic.find("\"stage.in\": 7"), std::string::npos) << deterministic;
  EXPECT_EQ(deterministic.find("pool.batches"), std::string::npos) << deterministic;
  EXPECT_EQ(deterministic.find("histograms"), std::string::npos) << deterministic;

  const std::string full = RenderTelemetryJson({&registry}, /*include_runtime=*/true);
  EXPECT_NE(full.find("\"pool.batches\": 3"), std::string::npos) << full;
  EXPECT_NE(full.find("\"stage.wall_ns\""), std::string::npos) << full;

  const std::string prometheus = RenderTelemetryPrometheus({&registry});
  EXPECT_NE(prometheus.find("fbd_stage_in 7"), std::string::npos) << prometheus;
  EXPECT_NE(prometheus.find("fbd_stage_wall_ns_count 1"), std::string::npos) << prometheus;
  EXPECT_NE(prometheus.find("le=\"+Inf\""), std::string::npos) << prometheus;
}

TEST(TelemetryExportTest, RegistriesRenderAsOneNameSortedDocument) {
  TelemetryRegistry database;
  TelemetryRegistry pipeline;
  database.GetCounter("tsdb.scan.tail_hits")->Add(5);
  database.GetCounter("tsdb.durable.log_bytes", CounterStability::kRuntime)->Add(9);
  pipeline.GetCounter("pipeline.runs")->Add(2);
  pipeline.GetCounter("service.commits", CounterStability::kRuntime)->Add(4);
  pipeline.GetHistogram("pipeline.run.wall_ns")->Record(10);
  database.GetHistogram("a.first")->Record(1);

  // One "counters", one "runtime_counters" and one "histograms" section, with
  // names sorted across both registries.
  EXPECT_EQ(RenderTelemetryJson({&database, &pipeline}, /*include_runtime=*/true),
            "{\n"
            "  \"counters\": {\n"
            "    \"pipeline.runs\": 2,\n"
            "    \"tsdb.scan.tail_hits\": 5\n"
            "  },\n"
            "  \"runtime_counters\": {\n"
            "    \"service.commits\": 4,\n"
            "    \"tsdb.durable.log_bytes\": 9\n"
            "  },\n"
            "  \"histograms\": [\n"
            "    {\"name\": \"a.first\", \"count\": 1, \"sum\": 1, \"buckets\": [[1, 1]]},\n"
            "    {\"name\": \"pipeline.run.wall_ns\", \"count\": 1, \"sum\": 10, "
            "\"buckets\": [[15, 1]]}\n"
            "  ]\n"
            "}\n");
  const std::string prometheus = RenderTelemetryPrometheus({&database, &pipeline});
  EXPECT_LT(prometheus.find("fbd_pipeline_runs 2"), prometheus.find("fbd_tsdb_scan_tail_hits 5"));
  EXPECT_NE(prometheus.find("fbd_service_commits 4"), std::string::npos) << prometheus;
}

// ---------------------------------------------------------------------------
// Pipeline integration: a small deterministic fleet with injected
// regressions (so the funnel is non-trivially populated) and a pinch of
// faults (so the quarantine counters are exercised).
// ---------------------------------------------------------------------------

constexpr Duration kTick = Minutes(10);
constexpr TimePoint kDataEnd = Days(2);
constexpr TimePoint kRunBegin = Hours(27);

ServiceConfig SmallServiceConfig() {
  ServiceConfig config;
  config.name = "svc";
  config.num_servers = 30;
  config.call_graph.num_subroutines = 30;
  config.sampling.samples_per_bucket = 500000;
  config.sampling.bucket_width = kTick;
  config.tick = kTick;
  config.num_endpoints = 2;
  config.num_seasonal_subroutines = 0;
  config.seasonal_load_amplitude = 0.0;
  config.seed = 7;
  return config;
}

PipelineOptions ObservedOptions(int scan_threads) {
  PipelineOptions options;
  options.detection.threshold = 0.0005;
  options.detection.windows.historical = Days(1);
  options.detection.windows.analysis = Hours(4);
  options.detection.windows.extended = Hours(2);
  options.detection.rerun_interval = Hours(3);
  options.scan_threads = scan_threads;
  options.telemetry.enabled = true;
  return options;
}

// A fresh fleet per call (the TSDB's tsdb.scan.* counters are cumulative, so
// sharing one database across pipelines would add their scans together):
// ingest is deterministic, so every fleet built here holds byte-identical
// data. Two
// step regressions make the funnel non-trivial; a 2% fault rate populates
// the sanitizer/quarantine counters.
std::unique_ptr<FleetSimulator> BuildObservedFleet(FaultInjector* injector) {
  auto fleet = std::make_unique<FleetSimulator>();
  const ServiceConfig config = SmallServiceConfig();
  fleet->AddService(config);
  const ServiceSimulator probe(config);
  int injected = 0;
  for (size_t i = 0; i < probe.graph().node_count() && injected < 2; ++i) {
    const NodeId id = static_cast<NodeId>(i);
    if (!probe.graph().edges(id).empty()) {
      continue;  // Leaves only: their cost moves their whole ancestor chain.
    }
    InjectedEvent event;
    event.kind = EventKind::kStepRegression;
    event.service = config.name;
    event.subroutine = probe.graph().node(id).name;
    event.start = Hours(36);
    event.magnitude = 0.5;
    fleet->InjectEvent(event);
    ++injected;
  }
  FleetIngestOptions options;
  options.threads = 2;
  options.flush_points = 1024;
  options.fault_injector = injector;
  fleet->Run(-kTick, kDataEnd, options);
  return fleet;
}

struct ObservedRun {
  std::unique_ptr<FleetSimulator> fleet;
  std::unique_ptr<Pipeline> pipeline;
  std::vector<Regression> reports;
};

ObservedRun RunObserved(int scan_threads, bool with_faults) {
  ObservedRun run;
  FaultInjector injector(FaultInjectorConfig::AllKinds(0.02, /*seed=*/11));
  run.fleet = BuildObservedFleet(with_faults ? &injector : nullptr);
  run.pipeline = std::make_unique<Pipeline>(&run.fleet->db(), nullptr, nullptr,
                                            ObservedOptions(scan_threads));
  run.reports = run.pipeline->RunPeriod("svc", kRunBegin, kDataEnd);
  return run;
}

// The database's and the pipeline's instruments, as every export renders them.
std::string DeterministicJson(const ObservedRun& run) {
  return RenderTelemetryJson({&run.fleet->db().telemetry(), &run.pipeline->telemetry()},
                             /*include_runtime=*/false);
}

uint64_t CounterValue(const TelemetryRegistry& registry, const std::string& name) {
  for (const CounterSnapshot& counter : registry.SnapshotCounters()) {
    if (counter.name == name) {
      return counter.value;
    }
  }
  ADD_FAILURE() << "counter not registered: " << name;
  return 0;
}

TEST(ObservabilityPathTest, DeterministicCountersAreByteIdenticalAcrossScanThreads) {
  const ObservedRun baseline = RunObserved(1, /*with_faults=*/true);
  const std::string expected = DeterministicJson(baseline);
  // Non-vacuous: the funnel actually produced reports and scanned series.
  EXPECT_FALSE(baseline.reports.empty());
  EXPECT_GT(CounterValue(baseline.pipeline->telemetry(), "pipeline.scan.series_in"), 0u);
  EXPECT_GT(CounterValue(baseline.fleet->db().telemetry(), "tsdb.scan.tail_hits"), 0u);
  for (const int threads : {2, 8}) {
    const ObservedRun repeat = RunObserved(threads, /*with_faults=*/true);
    EXPECT_EQ(DeterministicJson(repeat), expected) << "scan_threads=" << threads;
  }
}

TEST(ObservabilityPathTest, AttritionCountersReconcileExactly) {
  const ObservedRun run = RunObserved(2, /*with_faults=*/true);
  const TelemetryRegistry& registry = run.pipeline->telemetry();
  const auto value = [&registry](const char* name) { return CounterValue(registry, name); };

  // Scan accounting: every series entering a re-run is classified exactly
  // once — no data, decode failure, quarantined, or scanned by stage 1.
  EXPECT_EQ(value("pipeline.scan.series_in"),
            value("pipeline.scan.series_no_data") +
                value("pipeline.scan.series_decode_failures") +
                value("pipeline.scan.windows_quarantined") +
                value("pipeline.stage.change_point.in"));

  // Stage N's output is exactly stage N+1's input, down the short-term path.
  EXPECT_EQ(value("pipeline.stage.change_point.out"), value("pipeline.stage.went_away.in"));
  EXPECT_EQ(value("pipeline.stage.went_away.out"), value("pipeline.stage.seasonality.in"));
  EXPECT_EQ(value("pipeline.stage.seasonality.out"), value("pipeline.stage.threshold.in"));

  // Both paths' survivors meet at the fingerprint stage.
  EXPECT_EQ(value("pipeline.stage.fingerprint.in"),
            value("pipeline.stage.threshold.out") + value("pipeline.stage.long_term.out"));

  // The funnel chain, through to the reported regressions.
  EXPECT_EQ(value("pipeline.stage.fingerprint.out"),
            value("pipeline.stage.same_regression_merger.in"));
  EXPECT_EQ(value("pipeline.stage.same_regression_merger.out"),
            value("pipeline.stage.som_dedup.in"));
  EXPECT_EQ(value("pipeline.stage.som_dedup.out"), value("pipeline.stage.cost_shift.in"));
  EXPECT_EQ(value("pipeline.stage.cost_shift.out"), value("pipeline.stage.pairwise_dedup.in"));
  EXPECT_EQ(value("pipeline.stage.pairwise_dedup.out"), value("pipeline.reported"));
  EXPECT_EQ(value("pipeline.reported"), static_cast<uint64_t>(run.reports.size()));

  // The FunnelStats rows are the stage counters, split by path after the
  // paths meet.
  const FunnelStats short_funnel = run.pipeline->short_term_funnel();
  const FunnelStats long_funnel = run.pipeline->long_term_funnel();
  EXPECT_EQ(value("pipeline.stage.change_point.out"), short_funnel.change_points);
  EXPECT_EQ(value("pipeline.stage.went_away.out"), short_funnel.after_went_away);
  EXPECT_EQ(value("pipeline.stage.seasonality.out"), short_funnel.after_seasonality);
  EXPECT_EQ(value("pipeline.stage.threshold.out"), short_funnel.after_threshold);
  EXPECT_EQ(value("pipeline.stage.long_term.detected"), long_funnel.change_points);
  EXPECT_EQ(value("pipeline.stage.long_term.out"), long_funnel.after_threshold);
  EXPECT_GE(long_funnel.change_points, long_funnel.after_threshold);
  EXPECT_EQ(value("pipeline.stage.same_regression_merger.out"),
            short_funnel.after_same_merger + long_funnel.after_same_merger);
  EXPECT_EQ(value("pipeline.stage.som_dedup.out"),
            short_funnel.after_som_dedup + long_funnel.after_som_dedup);
  EXPECT_EQ(value("pipeline.stage.cost_shift.out"),
            short_funnel.after_cost_shift + long_funnel.after_cost_shift);
  EXPECT_EQ(value("pipeline.stage.pairwise_dedup.out"),
            short_funnel.after_pairwise + long_funnel.after_pairwise);
  size_t long_reports = 0;
  for (const Regression& report : run.reports) {
    long_reports += report.long_term ? 1 : 0;
  }
  EXPECT_EQ(long_funnel.after_pairwise, long_reports);

  // Quarantine totals reconcile with the report: every quarantined window in
  // the report came from the sanitizer gate, a decode failure, or an
  // isolated detector exception.
  const QuarantineReport quarantine = run.pipeline->quarantine_report();
  EXPECT_EQ(quarantine.total_windows_quarantined(),
            value("pipeline.scan.windows_quarantined") +
                value("pipeline.scan.series_decode_failures") +
                value("pipeline.scan.detector_exceptions"));
  EXPECT_GT(value("pipeline.scan.windows_quarantined"), 0u);  // Faults landed.

  // Sanitizer verdicts partition the inspected windows.
  EXPECT_EQ(value("pipeline.sanitizer.verdict_ok") + value("pipeline.sanitizer.verdict_gappy") +
                value("pipeline.sanitizer.verdict_flapping") +
                value("pipeline.sanitizer.verdict_corrupt"),
            value("pipeline.scan.series_in") - value("pipeline.scan.series_no_data") -
                value("pipeline.scan.series_decode_failures"));
}

// Stage timing is off by default and then reads no clock: no histogram is
// registered. The counters count either way, to the same values.
TEST(ObservabilityPathTest, TelemetryIsOffByDefaultAndCostsNothing) {
  EXPECT_FALSE(PipelineOptions{}.telemetry.enabled);
  ObservedRun run;
  run.fleet = BuildObservedFleet(nullptr);
  PipelineOptions options = ObservedOptions(2);
  options.telemetry.enabled = false;
  run.pipeline = std::make_unique<Pipeline>(&run.fleet->db(), nullptr, nullptr, options);
  run.reports = run.pipeline->RunPeriod("svc", kRunBegin, kDataEnd);
  EXPECT_EQ(run.pipeline->telemetry().histogram_count(), 0u);
  const std::string json =
      RenderTelemetryJson({&run.pipeline->telemetry()}, /*include_runtime=*/true);
  EXPECT_EQ(json.find("wall_ns"), std::string::npos) << json;

  const ObservedRun timed = RunObserved(2, /*with_faults=*/false);
  EXPECT_GT(timed.pipeline->telemetry().histogram_count(), 0u);
  EXPECT_EQ(DeterministicJson(run), DeterministicJson(timed));
}

const HistogramSnapshot* FindHistogram(const std::vector<HistogramSnapshot>& histograms,
                                       const std::string& name) {
  for (const HistogramSnapshot& histogram : histograms) {
    if (histogram.name == name) {
      return &histogram;
    }
  }
  return nullptr;
}

// The seasonality stage and the long-term detector read one seasonality
// estimate and one STL per window. Every window here has the 16 historical
// and 16 analysis points long-term needs, so each window long-term scans is
// estimated and decomposed exactly once, however many stages ask; the
// change-point location step runs once per window long-term keeps. With
// telemetry off, no substage histogram exists.
TEST(ObservabilityPathTest, EachWindowIsEstimatedAndDecomposedOnce) {
  const ObservedRun run = RunObserved(2, /*with_faults=*/false);
  const TelemetryRegistry& registry = run.pipeline->telemetry();
  const uint64_t long_term_in = CounterValue(registry, "pipeline.stage.long_term.in");
  EXPECT_GT(long_term_in, 0u);
  // Non-vacuous: some windows reach both stages.
  EXPECT_GT(CounterValue(registry, "pipeline.stage.seasonality.in"), 0u);
  const std::vector<HistogramSnapshot> histograms = registry.SnapshotHistograms();
  const HistogramSnapshot* estimate =
      FindHistogram(histograms, "pipeline.substage.seasonality_estimate.wall_ns");
  const HistogramSnapshot* stl = FindHistogram(histograms, "pipeline.substage.stl.wall_ns");
  const HistogramSnapshot* locate =
      FindHistogram(histograms, "pipeline.substage.long_term_locate.wall_ns");
  ASSERT_NE(estimate, nullptr);
  ASSERT_NE(stl, nullptr);
  ASSERT_NE(locate, nullptr);
  EXPECT_EQ(estimate->count, long_term_in);
  EXPECT_EQ(stl->count, long_term_in);
  EXPECT_EQ(locate->count, CounterValue(registry, "pipeline.stage.long_term.detected"));

  const auto fleet = BuildObservedFleet(nullptr);
  PipelineOptions off = ObservedOptions(2);
  off.telemetry.enabled = false;
  Pipeline untimed(&fleet->db(), nullptr, nullptr, off);
  untimed.RunPeriod("svc", kRunBegin, kDataEnd);
  const std::vector<HistogramSnapshot> none = untimed.telemetry().SnapshotHistograms();
  for (const char* name : {"pipeline.substage.seasonality_estimate.wall_ns",
                           "pipeline.substage.stl.wall_ns",
                           "pipeline.substage.long_term_locate.wall_ns"}) {
    EXPECT_EQ(FindHistogram(none, name), nullptr) << name;
  }
}

TEST(ObservabilityPathTest, DetectionResultsAreIdenticalWithTelemetryOnAndOff) {
  const auto fleet_on = BuildObservedFleet(nullptr);
  const auto fleet_off = BuildObservedFleet(nullptr);
  PipelineOptions on = ObservedOptions(2);
  PipelineOptions off = ObservedOptions(2);
  off.telemetry.enabled = false;
  Pipeline with_telemetry(&fleet_on->db(), nullptr, nullptr, on);
  Pipeline without_telemetry(&fleet_off->db(), nullptr, nullptr, off);
  const std::vector<Regression> observed = with_telemetry.RunPeriod("svc", kRunBegin, kDataEnd);
  const std::vector<Regression> plain = without_telemetry.RunPeriod("svc", kRunBegin, kDataEnd);
  ASSERT_EQ(observed.size(), plain.size());
  for (size_t i = 0; i < observed.size(); ++i) {
    EXPECT_EQ(ToJsonLine(observed[i]), ToJsonLine(plain[i]));
  }
}

TEST(ObservabilityPathTest, RenderTelemetryListsCountersAndHistograms) {
  const ObservedRun run = RunObserved(1, /*with_faults=*/false);
  const std::string rendered =
      RenderTelemetry({&run.fleet->db().telemetry(), &run.pipeline->telemetry()});
  EXPECT_NE(rendered.find("telemetry:"), std::string::npos);
  EXPECT_NE(rendered.find("pipeline.scan.series_in"), std::string::npos);
  EXPECT_NE(rendered.find("tsdb.scan.tail_hits"), std::string::npos);
  EXPECT_NE(rendered.find("pipeline.run.wall_ns"), std::string::npos);
}

}  // namespace
}  // namespace fbdetect
