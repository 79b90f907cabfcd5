// End-to-end acceptance tests for the fault-injection harness and the
// graceful-degradation funnel: the pipeline must survive a fleet with every
// fault kind injected at 10% without aborting, keep detections on untouched
// series byte-identical to a clean run for any scan_threads value, and
// account for every injected fault in the QuarantineReport.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/cost_shift.h"
#include "src/core/pipeline.h"
#include "src/core/sanitizer.h"
#include "src/fleet/fault_injector.h"
#include "src/fleet/fleet.h"
#include "src/fleet/service.h"
#include "src/report/report.h"
#include "src/tsdb/database.h"
#include "src/tsdb/timeseries.h"
#include "src/tsdb/window.h"

namespace fbdetect {
namespace {

constexpr Duration kTick = Minutes(10);
// Data covers [0, kDataEnd] on the tick grid (Run starts at -kTick so the
// first point lands exactly on t = 0 and every re-run window is grid-aligned
// with zero missing slots on clean series).
constexpr TimePoint kDataEnd = Days(2);
// Re-runs at 30h, 33h, ..., 48h tile [0, 48h); the final run at 48h10m
// covers the last grid point, so every injected fault lands inside at least
// one inspected window.
constexpr TimePoint kRunBegin = Hours(27);
constexpr TimePoint kFinalRun = kDataEnd + kTick;
constexpr uint64_t kFaultSeed = 11;

ServiceConfig DirtyServiceConfig(const std::string& name) {
  ServiceConfig config;
  config.name = name;
  config.num_servers = 100;
  config.call_graph.num_subroutines = 60;
  config.sampling.samples_per_bucket = 500000;
  config.sampling.bucket_width = kTick;
  config.tick = kTick;
  config.num_endpoints = 2;
  config.num_seasonal_subroutines = 0;
  config.seasonal_load_amplitude = 0.0;
  // Process CPU tracks total graph cost, so a gCPU step leaks into it; the
  // clean-subset identity check wants cost regressions confined to series
  // whose fault status the test controls (the gCPU call-graph closure).
  config.emit_process_cpu = false;
  config.seed = 7;
  return config;
}

PipelineOptions DetectOptions(int scan_threads) {
  PipelineOptions options;
  options.detection.threshold = 0.0005;
  options.detection.windows.historical = Days(1);
  options.detection.windows.analysis = Hours(4);
  options.detection.windows.extended = Hours(2);
  options.detection.rerun_interval = Hours(3);
  options.scan_threads = scan_threads;
  return options;
}

MetricId GcpuId(const std::string& service, const std::string& subroutine) {
  return MetricId{service, MetricKind::kGcpu, subroutine, ""};
}

// All nodes from which `target` is reachable, target included — exactly the
// set of gCPU series a self-cost step on `target` can move.
std::vector<NodeId> InclusiveAncestors(const CallGraph& graph, NodeId target) {
  std::vector<bool> seen(graph.node_count(), false);
  std::vector<NodeId> stack = {target};
  std::vector<NodeId> closure;
  seen[static_cast<size_t>(target)] = true;
  while (!stack.empty()) {
    const NodeId node = stack.back();
    stack.pop_back();
    closure.push_back(node);
    for (const NodeId caller : graph.CallersOf(node)) {
      if (!seen[static_cast<size_t>(caller)]) {
        seen[static_cast<size_t>(caller)] = true;
        stack.push_back(caller);
      }
    }
  }
  return closure;
}

// Leaf subroutines with a detectable reach whose whole inclusive-ancestor
// closure is outside the injector's faultable subset: a step regression on
// one of these moves clean series only, so its detections must be identical
// between the clean and the faulted run.
std::vector<std::string> CleanStepTargets(const ServiceConfig& config,
                                          const FaultInjector& injector, size_t max_targets) {
  const ServiceSimulator probe(config);
  const CallGraph& graph = probe.graph();
  const std::vector<double> reach = graph.ReachProbabilities();
  std::vector<std::string> targets;
  for (size_t i = 0; i < graph.node_count() && targets.size() < max_targets; ++i) {
    const NodeId id = static_cast<NodeId>(i);
    if (!graph.edges(id).empty() || reach[i] < 0.003 || reach[i] > 0.2) {
      continue;
    }
    bool closure_clean = true;
    for (const NodeId node : InclusiveAncestors(graph, id)) {
      if (injector.SeriesSelected(GcpuId(config.name, graph.node(node).name))) {
        closure_clean = false;
        break;
      }
    }
    if (closure_clean) {
      targets.push_back(graph.node(id).name);
    }
  }
  return targets;
}

// Builds one fleet (with optional fault injection) over [0, end], scheduling
// a 50% step regression at 36h on each target subroutine.
std::unique_ptr<FleetSimulator> BuildFleet(const ServiceConfig& config,
                                           const std::vector<std::string>& step_targets,
                                           FaultInjector* injector, TimePoint end,
                                           int threads, size_t flush_points) {
  auto fleet = std::make_unique<FleetSimulator>();
  fleet->AddService(config);
  for (const std::string& target : step_targets) {
    InjectedEvent event;
    event.kind = EventKind::kStepRegression;
    event.service = config.name;
    event.subroutine = target;
    event.start = Hours(36);
    event.magnitude = 0.5;
    fleet->InjectEvent(event);
  }
  FleetIngestOptions options;
  options.threads = threads;
  options.flush_points = flush_points;
  options.fault_injector = injector;
  fleet->Run(-kTick, end, options);
  return fleet;
}

// Content hash over every stored series, in canonical order. Two databases
// with the same fingerprint hold byte-identical points.
uint64_t DbFingerprint(const TimeSeriesDatabase& db) {
  uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](uint64_t x) {
    h ^= x + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  for (const MetricId& id : db.ListMetrics()) {
    for (const char c : id.ToString()) {
      mix(static_cast<uint64_t>(static_cast<uint8_t>(c)));
    }
    const std::optional<TimeSeries> series = db.Find(id);
    mix(series->size());
    for (size_t i = 0; i < series->size(); ++i) {
      mix(static_cast<uint64_t>(series->timestamps()[i]));
      mix(std::bit_cast<uint64_t>(series->values()[i]));
    }
  }
  return h;
}

// A series' ingest rejects as the quarantine report reads them.
struct SeriesRejects {
  MetricId metric;
  uint64_t duplicate = 0;
  uint64_t out_of_order = 0;
  bool operator==(const SeriesRejects& other) const = default;
};

// Every series that dropped a point, in canonical order.
std::vector<SeriesRejects> IngestRejects(const TimeSeriesDatabase& db) {
  std::vector<SeriesRejects> rejects;
  db.ForEachIngestReject([&rejects](const MetricId& metric, uint64_t duplicate,
                                    uint64_t out_of_order) {
    rejects.push_back({metric, duplicate, out_of_order});
  });
  return rejects;
}

std::string Serialize(const std::vector<Regression>& reports) {
  std::string out;
  for (const Regression& report : reports) {
    out += ToJsonLine(report);
    out += '\n';
  }
  return out;
}

// One full detection pass (periodic re-runs + the final grid-covering run);
// returns the pipeline so callers can read funnel / quarantine state.
struct DetectionResult {
  std::vector<Regression> reports;
  std::string rendered;  // reports + funnel + quarantine, for byte comparison.
  QuarantineReport quarantine;
};

DetectionResult RunDetection(const TimeSeriesDatabase& db, const std::string& service,
                             int scan_threads) {
  Pipeline pipeline(&db, nullptr, nullptr, DetectOptions(scan_threads));
  DetectionResult result;
  result.reports = pipeline.RunPeriod(service, kRunBegin, kDataEnd);
  std::vector<Regression> final_run = pipeline.RunAt(service, kFinalRun);
  result.reports.insert(result.reports.end(), final_run.begin(), final_run.end());
  result.quarantine = pipeline.quarantine_report();
  result.rendered = Serialize(result.reports);
  result.rendered += RenderFunnel(pipeline.short_term_funnel(), pipeline.long_term_funnel(),
                                  /*long_term_enabled=*/true);
  result.rendered += RenderQuarantine(result.quarantine, /*max_rows=*/0);
  return result;
}

std::vector<Regression> FilterToCleanSeries(const std::vector<Regression>& reports,
                                            const std::set<MetricId>& faulted) {
  std::vector<Regression> clean;
  for (const Regression& report : reports) {
    if (!faulted.contains(report.metric)) {
      clean.push_back(report);
    }
  }
  return clean;
}

// ---------------------------------------------------------------------------
// Injector determinism: the corrupted database and the fault ledger are pure
// functions of (seed, series, timestamp) — ingest thread count and flush
// cadence must not change a single byte.
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, InjectionIsDeterministicAcrossThreadsAndFlushCadence) {
  const FaultInjectorConfig config = FaultInjectorConfig::AllKinds(0.10, kFaultSeed);
  struct Variant {
    int threads;
    size_t flush_points;
  };
  const Variant variants[] = {{1, 4096}, {3, 64}, {2, 1}};

  std::vector<uint64_t> fingerprints;
  std::vector<std::unique_ptr<FaultInjector>> injectors;
  std::vector<size_t> stored;
  std::vector<std::vector<SeriesRejects>> rejects;
  for (const Variant& variant : variants) {
    auto injector = std::make_unique<FaultInjector>(config);
    FleetSimulator fleet;
    for (const char* name : {"alpha", "beta", "gamma"}) {
      ServiceConfig service = DirtyServiceConfig(name);
      service.call_graph.num_subroutines = 40;
      service.num_servers = 50;
      fleet.AddService(service);
    }
    FleetIngestOptions options;
    options.threads = variant.threads;
    options.flush_points = variant.flush_points;
    options.fault_injector = injector.get();
    fleet.Run(-kTick, Hours(6), options);
    fingerprints.push_back(DbFingerprint(fleet.db()));
    stored.push_back(fleet.db().total_points());
    rejects.push_back(IngestRejects(fleet.db()));
    injectors.push_back(std::move(injector));
  }

  const FaultLedger& reference = injectors[0]->ledger();
  const std::vector<MetricId> faulted = reference.FaultedSeries();
  EXPECT_GT(faulted.size(), 0u);
  for (size_t v = 1; v < injectors.size(); ++v) {
    EXPECT_EQ(fingerprints[v], fingerprints[0]);
    EXPECT_EQ(stored[v], stored[0]);
    EXPECT_EQ(rejects[v], rejects[0]);
    const FaultLedger& ledger = injectors[v]->ledger();
    EXPECT_EQ(ledger.FaultedSeries(), faulted);
    for (const MetricId& metric : faulted) {
      for (size_t k = 0; k < kFaultKindCount; ++k) {
        const FaultKind kind = static_cast<FaultKind>(k);
        EXPECT_EQ(ledger.Count(metric, kind), reference.Count(metric, kind))
            << metric.ToString() << " kind " << FaultKindName(kind);
      }
    }
  }
}

TEST(FaultInjectorTest, ZeroRatesLeaveTheFleetUntouched) {
  FaultInjector injector(FaultInjectorConfig::AllKinds(0.0, kFaultSeed));
  const ServiceConfig config = DirtyServiceConfig("svc");
  const auto clean = BuildFleet(config, {}, nullptr, Hours(6), 1, 4096);
  const auto faulted = BuildFleet(config, {}, &injector, Hours(6), 1, 4096);
  EXPECT_EQ(DbFingerprint(faulted->db()), DbFingerprint(clean->db()));
  EXPECT_EQ(injector.ledger().total(), 0u);
  EXPECT_TRUE(IngestRejects(faulted->db()).empty());
}

TEST(FaultInjectorTest, LedgerOnlyNamesSelectedSeries) {
  FaultInjector injector(FaultInjectorConfig::AllKinds(0.10, kFaultSeed));
  const auto fleet = BuildFleet(DirtyServiceConfig("svc"), {}, &injector, Hours(6), 1, 4096);
  const std::vector<MetricId> faulted = injector.ledger().FaultedSeries();
  ASSERT_FALSE(faulted.empty());
  for (const MetricId& metric : faulted) {
    EXPECT_TRUE(injector.SeriesSelected(metric)) << metric.ToString();
  }
}

// ---------------------------------------------------------------------------
// The acceptance run: 10% of every fault kind over the dirty subset.
// ---------------------------------------------------------------------------

TEST(RobustnessPathTest, DirtyFleetSurvivesAndCleanSeriesDetectionsAreIdentical) {
  const ServiceConfig config = DirtyServiceConfig("svc");
  FaultInjector injector(FaultInjectorConfig::AllKinds(0.10, kFaultSeed));
  const std::vector<std::string> targets = CleanStepTargets(config, injector, 2);
  ASSERT_FALSE(targets.empty())
      << "no leaf subroutine with a fault-free ancestor closure; change kFaultSeed";

  const auto clean_fleet = BuildFleet(config, targets, nullptr, kDataEnd, 1, 4096);
  const auto dirty_fleet = BuildFleet(config, targets, &injector, kDataEnd, 2, 512);
  const FaultLedger& ledger = injector.ledger();

  // Every fault kind was actually exercised.
  for (size_t k = 0; k < kFaultKindCount; ++k) {
    EXPECT_GT(ledger.TotalByKind(static_cast<FaultKind>(k)), 0u)
        << FaultKindName(static_cast<FaultKind>(k));
  }

  // Retransmit faults reconcile exactly with the database's ingest rejects.
  uint64_t duplicates = 0;
  uint64_t out_of_order = 0;
  for (const SeriesRejects& series : IngestRejects(dirty_fleet->db())) {
    duplicates += series.duplicate;
    out_of_order += series.out_of_order;
  }
  EXPECT_EQ(duplicates, ledger.TotalByKind(FaultKind::kDuplicate));
  EXPECT_EQ(out_of_order, ledger.TotalByKind(FaultKind::kOutOfOrder));

  // The dirty run must complete without an abort or an uncaught exception,
  // at every scan_threads value, with byte-identical output.
  DetectionResult dirty;
  ASSERT_NO_THROW(dirty = RunDetection(dirty_fleet->db(), config.name, 1));
  for (const int threads : {2, 8}) {
    DetectionResult repeat;
    ASSERT_NO_THROW(repeat = RunDetection(dirty_fleet->db(), config.name, threads));
    EXPECT_EQ(repeat.rendered, dirty.rendered) << "scan_threads=" << threads;
  }
  for (const Regression& report : dirty.reports) {
    EXPECT_TRUE(std::isfinite(report.delta)) << report.metric.ToString();
    EXPECT_TRUE(std::isfinite(report.baseline_mean)) << report.metric.ToString();
  }

  // Detections on uncorrupted series are byte-identical to the clean run.
  const DetectionResult clean = RunDetection(clean_fleet->db(), config.name, 1);
  const std::vector<MetricId> faulted_list = ledger.FaultedSeries();
  const std::set<MetricId> faulted(faulted_list.begin(), faulted_list.end());
  const std::vector<Regression> dirty_clean_subset =
      FilterToCleanSeries(dirty.reports, faulted);
  const std::vector<Regression> clean_clean_subset =
      FilterToCleanSeries(clean.reports, faulted);
  EXPECT_EQ(Serialize(dirty_clean_subset), Serialize(clean_clean_subset));
  // Non-vacuous: the injected step regressions on clean subroutines were
  // detected in both runs. The reported representative may be any gCPU
  // series of the (fault-free) ancestor closure, so match on the change
  // time rather than the exact metric.
  bool target_detected = false;
  for (const Regression& report : dirty_clean_subset) {
    target_detected |= report.metric.kind == MetricKind::kGcpu &&
                       std::llabs(report.change_time - Hours(36)) <= Hours(1);
  }
  EXPECT_TRUE(target_detected) << Serialize(dirty_clean_subset);

  // The quarantine report accounts for every injected fault, by series and
  // kind.
  EXPECT_EQ(dirty.quarantine.total_dropped_duplicate(),
            ledger.TotalByKind(FaultKind::kDuplicate));
  EXPECT_EQ(dirty.quarantine.total_dropped_out_of_order(),
            ledger.TotalByKind(FaultKind::kOutOfOrder));
  std::map<MetricId, const QuarantineRecord*> by_metric;
  for (const QuarantineRecord& record : dirty.quarantine.records) {
    by_metric[record.metric] = &record;
  }
  for (const MetricId& metric : faulted_list) {
    const auto it = by_metric.find(metric);
    ASSERT_NE(it, by_metric.end()) << "no quarantine record for " << metric.ToString();
    const QuarantineRecord& record = *it->second;
    const auto count = [&](FaultKind kind) { return ledger.Count(metric, kind); };
    if (count(FaultKind::kNan) + count(FaultKind::kInf) > 0) {
      EXPECT_GT(record.non_finite, 0u) << metric.ToString();
    }
    if (count(FaultKind::kCounterReset) > 0) {
      EXPECT_GT(record.negative, 0u) << metric.ToString();
    }
    if (count(FaultKind::kDrop) + count(FaultKind::kFlap) > 0) {
      EXPECT_TRUE(record.missing > 0 || record.flap_windows > 0) << metric.ToString();
    }
    if (count(FaultKind::kClockSkew) > 0) {
      EXPECT_GT(record.max_skew, 0) << metric.ToString();
    }
    EXPECT_EQ(record.dropped_duplicate, count(FaultKind::kDuplicate)) << metric.ToString();
    EXPECT_EQ(record.dropped_out_of_order, count(FaultKind::kOutOfOrder))
        << metric.ToString();
    if (count(FaultKind::kNan) + count(FaultKind::kInf) + count(FaultKind::kCounterReset) >
        0) {
      EXPECT_GT(record.windows_quarantined, 0u) << metric.ToString();
    }
  }
}

// The chaos-matrix sweep run by CI under ASan/UBSan: every fault rate must
// complete crash-free with finite reports and thread-count-independent
// output.
TEST(RobustnessPathTest, ChaosMatrixCompletesAtEveryRate) {
  const ServiceConfig config = DirtyServiceConfig("svc");
  for (const double rate : {0.01, 0.05, 0.10}) {
    FaultInjector injector(FaultInjectorConfig::AllKinds(rate, kFaultSeed + 1));
    const auto fleet = BuildFleet(config, {}, &injector, kDataEnd, 2, 1024);
    DetectionResult serial;
    ASSERT_NO_THROW(serial = RunDetection(fleet->db(), config.name, 1)) << "rate=" << rate;
    DetectionResult parallel;
    ASSERT_NO_THROW(parallel = RunDetection(fleet->db(), config.name, 2)) << "rate=" << rate;
    EXPECT_EQ(parallel.rendered, serial.rendered) << "rate=" << rate;
    for (const Regression& report : serial.reports) {
      EXPECT_TRUE(std::isfinite(report.delta)) << report.metric.ToString();
    }
    EXPECT_EQ(serial.quarantine.total_dropped_duplicate(),
              injector.ledger().TotalByKind(FaultKind::kDuplicate))
        << "rate=" << rate;
  }
}

// ---------------------------------------------------------------------------
// Funnel-stage exception identity: a throwing user-registered cost-domain
// detector must not abort the run, and the exception's what() must surface
// in the quarantine record and the rendered report (not be swallowed by a
// bare catch).
// ---------------------------------------------------------------------------

class ThrowingDomainDetector : public CostDomainDetector {
 public:
  std::string name() const override { return "throwing_domain"; }
  std::vector<CostDomain> DomainsFor(const Regression&) const override {
    throw std::runtime_error("domain detector hardware fault");
  }
};

TEST(RobustnessPathTest, FunnelExceptionIdentitySurfacesInQuarantine) {
  ServiceConfig config = DirtyServiceConfig("svc");
  config.num_servers = 40;
  config.call_graph.num_subroutines = 30;
  // Zero-rate injector: selects nothing, so every leaf closure is clean.
  FaultInjector none(FaultInjectorConfig::AllKinds(0.0, kFaultSeed));
  const std::vector<std::string> targets = CleanStepTargets(config, none, 1);
  ASSERT_FALSE(targets.empty());
  const auto fleet = BuildFleet(config, targets, nullptr, kDataEnd, 1, 4096);

  Pipeline pipeline(&fleet->db(), nullptr, nullptr, DetectOptions(2));
  pipeline.cost_shift_detector().AddDomainDetector(
      std::make_unique<ThrowingDomainDetector>());
  std::vector<Regression> reports;
  ASSERT_NO_THROW(reports = pipeline.RunPeriod(config.name, kRunBegin, kDataEnd));
  std::vector<Regression> final_run;
  ASSERT_NO_THROW(final_run = pipeline.RunAt(config.name, kFinalRun));
  reports.insert(reports.end(), final_run.begin(), final_run.end());
  // A throwing detector treats its candidate as not-a-shift: the injected
  // step regression is still reported.
  EXPECT_FALSE(reports.empty());

  const QuarantineReport quarantine = pipeline.quarantine_report();
  EXPECT_GT(quarantine.total_exceptions(), 0u);
  bool identity_found = false;
  for (const QuarantineRecord& record : quarantine.records) {
    if (record.last_error == "domain detector hardware fault") {
      identity_found = true;
      EXPECT_GT(record.exceptions, 0u) << record.metric.ToString();
    }
  }
  EXPECT_TRUE(identity_found) << RenderQuarantine(quarantine, /*max_rows=*/0);
  const std::string rendered = RenderQuarantine(quarantine, /*max_rows=*/0);
  EXPECT_NE(rendered.find("last error: domain detector hardware fault"),
            std::string::npos)
      << rendered;
}

// ---------------------------------------------------------------------------
// Sanitizer unit tests: one window, one artifact each.
// ---------------------------------------------------------------------------

constexpr Duration kStep = Minutes(1);

WindowSpec UnitSpec() {
  WindowSpec spec;
  spec.historical = Hours(1);
  spec.analysis = Minutes(30);
  spec.extended = 0;
  return spec;
}

// Grid series over [begin, end) at kStep, with per-point value and keep
// hooks.
template <typename Value, typename Keep>
TimeSeries GridSeries(TimePoint begin, TimePoint end, Value value, Keep keep) {
  TimeSeries series;
  for (TimePoint t = begin; t < end; t += kStep) {
    if (keep(t)) {
      series.Append(t, value(t));
    }
  }
  return series;
}

TimeSeries CleanGrid(TimePoint begin, TimePoint end) {
  return GridSeries(begin, end, [](TimePoint) { return 1.0; },
                    [](TimePoint) { return true; });
}

WindowQuality InspectSeries(const TimeSeries& series, TimePoint as_of,
                            MetricKind kind = MetricKind::kGcpu) {
  const WindowView view = ExtractWindowView(series, as_of, UnitSpec());
  return InspectWindow(kind, view, UnitSpec());
}

TEST(SanitizerTest, CleanWindowIsOkWithNoArtifacts) {
  const TimeSeries series = CleanGrid(Minutes(30), Hours(2));
  const WindowQuality quality = InspectSeries(series, Hours(2));
  EXPECT_TRUE(quality.observed);
  EXPECT_EQ(quality.verdict, QualityVerdict::kOk);
  EXPECT_EQ(quality.non_finite, 0u);
  EXPECT_EQ(quality.negative, 0u);
  EXPECT_EQ(quality.missing, 0u);
  EXPECT_EQ(quality.skew, 0);
  EXPECT_FALSE(quality.late_start);
  EXPECT_FALSE(quality.early_end);
}

TEST(SanitizerTest, NonFiniteValuesAreCorrupt) {
  const TimeSeries series = GridSeries(
      Minutes(30), Hours(2),
      [](TimePoint t) {
        return t == Hours(1) ? std::numeric_limits<double>::quiet_NaN() : 1.0;
      },
      [](TimePoint) { return true; });
  const WindowQuality quality = InspectSeries(series, Hours(2));
  EXPECT_EQ(quality.verdict, QualityVerdict::kCorrupt);
  EXPECT_EQ(quality.non_finite, 1u);
  EXPECT_TRUE(ShouldQuarantine(quality.verdict));
}

TEST(SanitizerTest, NegativesCorruptNonNegativeKindsOnly) {
  const TimeSeries series = GridSeries(
      Minutes(30), Hours(2), [](TimePoint t) { return t == Hours(1) ? -3.0 : 1.0; },
      [](TimePoint) { return true; });
  const WindowQuality gcpu = InspectSeries(series, Hours(2), MetricKind::kGcpu);
  EXPECT_EQ(gcpu.verdict, QualityVerdict::kCorrupt);
  EXPECT_EQ(gcpu.negative, 1u);
  // Free-form application metrics may legitimately go negative.
  const WindowQuality app = InspectSeries(series, Hours(2), MetricKind::kApplication);
  EXPECT_EQ(app.verdict, QualityVerdict::kOk);
  EXPECT_EQ(app.negative, 0u);
}

TEST(SanitizerTest, NegativeZeroIsNotCountedNegative) {
  // IEEE -0.0 is not < 0: among alternating -0.0 and 0.0 only the -1.0 counts.
  const auto zeros = [](double odd_one_out) {
    return GridSeries(
        Minutes(30), Hours(2),
        [odd_one_out](TimePoint t) {
          return t == Hours(1) ? odd_one_out : (t / kStep) % 2 != 0 ? -0.0 : 0.0;
        },
        [](TimePoint) { return true; });
  };
  const WindowQuality one = InspectSeries(zeros(-1.0), Hours(2));
  EXPECT_EQ(one.verdict, QualityVerdict::kCorrupt);
  EXPECT_EQ(one.non_finite, 0u);
  EXPECT_EQ(one.negative, 1u);
  const WindowQuality none = InspectSeries(zeros(-0.0), Hours(2));
  EXPECT_EQ(none.verdict, QualityVerdict::kOk);
  EXPECT_EQ(none.non_finite, 0u);
  EXPECT_EQ(none.negative, 0u);
}

TEST(SanitizerTest, GapsBeyondBudgetAreGappyAndBelowBudgetAreCounted) {
  // Drop every third historical point: 20 of 90 expected samples missing,
  // under the default 25% budget -> flagged, not quarantined.
  const TimeSeries tolerated = GridSeries(
      Minutes(30), Hours(2), [](TimePoint) { return 1.0; },
      [](TimePoint t) { return t >= Minutes(90) || (t / kStep) % 3 != 0; });
  const WindowQuality ok = InspectSeries(tolerated, Hours(2));
  EXPECT_EQ(ok.verdict, QualityVerdict::kOk);
  EXPECT_EQ(ok.missing, 20u);
  EXPECT_FALSE(ShouldQuarantine(ok.verdict));

  // Drop half of the historical window: 30 missing > 22.5 budget -> gappy.
  const TimeSeries gappy = GridSeries(
      Minutes(30), Hours(2), [](TimePoint) { return 1.0; },
      [](TimePoint t) { return t >= Minutes(90) || (t / kStep) % 2 != 0; });
  const WindowQuality bad = InspectSeries(gappy, Hours(2));
  EXPECT_EQ(bad.verdict, QualityVerdict::kGappy);
  EXPECT_EQ(bad.missing, 30u);
  EXPECT_TRUE(ShouldQuarantine(bad.verdict));
}

TEST(SanitizerTest, LateStartIsFlapping) {
  // Series appears 40 minutes into the 60-minute historical window:
  // 20 of 60 expected samples < the 50% coverage floor.
  const TimeSeries series = CleanGrid(Minutes(70), Hours(2));
  const WindowQuality quality = InspectSeries(series, Hours(2));
  EXPECT_EQ(quality.verdict, QualityVerdict::kFlapping);
  EXPECT_TRUE(quality.late_start);
}

TEST(SanitizerTest, EarlyEndIsFlapping) {
  // Series goes dark 10 minutes before as_of (> 2 ticks of slack).
  const TimeSeries series = CleanGrid(Minutes(30), Minutes(110));
  const WindowQuality quality = InspectSeries(series, Hours(2));
  EXPECT_EQ(quality.verdict, QualityVerdict::kFlapping);
  EXPECT_TRUE(quality.early_end);
}

TEST(SanitizerTest, SingleAnalysisSampleHasNoTick) {
  // Dark after one analysis sample: no positive stamp gap, so no tick.
  const TimeSeries series = CleanGrid(Minutes(30), Minutes(91));
  const WindowQuality quality = InspectSeries(series, Hours(2));
  EXPECT_EQ(quality.tick, 0);
  EXPECT_EQ(quality.verdict, QualityVerdict::kFlapping);
  EXPECT_TRUE(quality.early_end);
}

TEST(SanitizerTest, ConstantClockSkewIsToleratedButMeasured) {
  TimeSeries series;
  for (TimePoint t = Minutes(30); t < Hours(2); t += kStep) {
    series.Append(t + 7, 1.0);
  }
  const WindowQuality quality = InspectSeries(series, Hours(2));
  EXPECT_EQ(quality.verdict, QualityVerdict::kOk);
  EXPECT_EQ(quality.skew, 7);
  EXPECT_EQ(quality.missing, 0u);
}

TEST(SanitizerTest, EmptyWindowIsNotObserved) {
  const TimeSeries series = CleanGrid(0, Minutes(10));
  const WindowQuality quality = InspectSeries(series, Hours(12));
  EXPECT_FALSE(quality.observed);
  EXPECT_EQ(quality.verdict, QualityVerdict::kOk);
}

TEST(SanitizerTest, QuarantinePolicyWithholdsEveryNonOkVerdict) {
  EXPECT_FALSE(ShouldQuarantine(QualityVerdict::kOk));
  EXPECT_TRUE(ShouldQuarantine(QualityVerdict::kGappy));
  EXPECT_TRUE(ShouldQuarantine(QualityVerdict::kFlapping));
  EXPECT_TRUE(ShouldQuarantine(QualityVerdict::kCorrupt));
}

}  // namespace
}  // namespace fbdetect
