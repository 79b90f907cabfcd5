#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <span>

#include "src/common/random.h"
#include "src/fleet/change_log.h"
#include "src/fleet/events.h"
#include "src/fleet/fleet.h"
#include "src/fleet/scenario.h"
#include "src/fleet/service.h"
#include "src/stats/descriptive.h"

namespace fbdetect {
namespace {

ServiceConfig SmallServiceConfig(const std::string& name) {
  ServiceConfig config;
  config.name = name;
  config.num_servers = 100;
  config.call_graph.num_subroutines = 60;
  config.sampling.samples_per_bucket = 500000;
  config.sampling.bucket_width = Minutes(10);
  config.tick = Minutes(10);
  config.num_endpoints = 2;
  config.num_seasonal_subroutines = 0;
  config.seasonal_load_amplitude = 0.0;
  config.seed = 7;
  return config;
}

TEST(ChangeLogTest, AddFindAndQuery) {
  ChangeLog log;
  Commit c1;
  c1.service = "svc";
  c1.time = 100;
  c1.title = "first";
  const int64_t id1 = log.Add(c1);
  Commit c2;
  c2.service = "other";
  c2.time = 200;
  const int64_t id2 = log.Add(c2);

  EXPECT_EQ(log.Find(id1)->title, "first");
  EXPECT_EQ(log.Find(999), nullptr);
  EXPECT_EQ(log.Find(-1), nullptr);
  EXPECT_EQ(log.CommitsBetween("svc", 0, 300).size(), 1u);
  EXPECT_EQ(log.CommitsBetween("", 0, 300).size(), 2u);
  EXPECT_TRUE(log.CommitsBetween("svc", 150, 300).empty());
  (void)id2;
}

TEST(EventNamesTest, AllNamed) {
  EXPECT_STREQ(EventKindName(EventKind::kCostShift), "cost_shift");
  EXPECT_STREQ(TransientKindName(TransientKind::kCanaryTest), "canary_test");
}

TEST(ServiceSimulatorTest, EmitsAllMetricFamilies) {
  ServiceConfig config = SmallServiceConfig("svc");
  ServiceSimulator service(config);
  TimeSeriesDatabase db;
  WriteBatch batch(&db);
  for (TimePoint t = Minutes(10); t <= Hours(2); t += Minutes(10)) {
    service.Tick(t, batch);
  }
  batch.Commit();
  EXPECT_FALSE(db.ListMetricsOfKind("svc", MetricKind::kGcpu).empty());
  EXPECT_FALSE(db.ListMetricsOfKind("svc", MetricKind::kCpu).empty());
  EXPECT_FALSE(db.ListMetricsOfKind("svc", MetricKind::kThroughput).empty());
  EXPECT_FALSE(db.ListMetricsOfKind("svc", MetricKind::kLatency).empty());
  EXPECT_FALSE(db.ListMetricsOfKind("svc", MetricKind::kErrorRate).empty());
}

TEST(ServiceSimulatorTest, StepRegressionRaisesSubroutineGcpu) {
  ServiceConfig config = SmallServiceConfig("svc");
  ServiceSimulator service(config);
  // Pick a LEAF subroutine with measurable expected gCPU: for a leaf,
  // self cost == subtree cost, so a +50% self-cost regression moves its
  // inclusive gCPU by nearly +50% (child-dominated interior nodes dilute
  // the effect).
  const CallGraph& graph = service.graph();
  const std::vector<double> reach = graph.ReachProbabilities();
  NodeId target = kInvalidNode;
  for (size_t i = 0; i < reach.size(); ++i) {
    if (reach[i] > 0.005 && reach[i] < 0.5 &&
        graph.edges(static_cast<NodeId>(i)).empty()) {
      target = static_cast<NodeId>(i);
      break;
    }
  }
  ASSERT_NE(target, kInvalidNode);
  const std::string name = graph.node(target).name;

  InjectedEvent event;
  event.kind = EventKind::kStepRegression;
  event.service = "svc";
  event.subroutine = name;
  event.start = Hours(5);
  event.magnitude = 0.5;
  service.ScheduleEvent(event);

  TimeSeriesDatabase db;
  WriteBatch batch(&db);
  for (TimePoint t = Minutes(10); t <= Hours(10); t += Minutes(10)) {
    service.Tick(t, batch);
  }
  batch.Commit();
  const MetricId metric{"svc", MetricKind::kGcpu, name, ""};
  const std::optional<TimeSeries> series = db.Find(metric);
  ASSERT_TRUE(series.has_value());
  const std::vector<double> before = series->ValuesBetween(0, Hours(5));
  const std::vector<double> after = series->ValuesBetween(Hours(5) + 1, Hours(10) + 1);
  ASSERT_FALSE(before.empty());
  ASSERT_FALSE(after.empty());
  EXPECT_GT(Mean(after), Mean(before) * 1.05);
}

TEST(ServiceSimulatorTest, CostShiftPreservesClassTotal) {
  ServiceConfig config = SmallServiceConfig("svc");
  config.call_graph.num_classes = 6;  // Few classes => same-class leaf pairs exist.
  ServiceSimulator service(config);
  const CallGraph& graph = service.graph();
  // Find two same-class LEAF subroutines with self cost (leaf-to-leaf shifts
  // keep the total graph cost exactly constant). Group leaves by class.
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  std::unordered_map<std::string, NodeId> first_leaf_in_class;
  for (size_t i = 0; i < graph.node_count() && to == kInvalidNode; ++i) {
    const NodeId id = static_cast<NodeId>(i);
    if (!graph.edges(id).empty() || graph.node(id).self_cost <= 0.01) {
      continue;
    }
    const auto [it, inserted] = first_leaf_in_class.emplace(graph.node(id).class_name, id);
    if (!inserted) {
      from = it->second;
      to = id;
    }
  }
  ASSERT_NE(to, kInvalidNode) << "random graph lacks a same-class leaf pair";

  InjectedEvent event;
  event.kind = EventKind::kCostShift;
  event.service = "svc";
  event.shift_source = graph.node(from).name;
  event.subroutine = graph.node(to).name;
  event.start = Hours(3);
  event.magnitude = 0.8;
  service.ScheduleEvent(event);

  const double total_before = graph.TotalCost();
  TimeSeriesDatabase db;
  WriteBatch batch(&db);
  for (TimePoint t = Minutes(10); t <= Hours(6); t += Minutes(10)) {
    service.Tick(t, batch);
  }
  batch.Commit();
  // Leaf self-cost shifts do not change total graph cost.
  EXPECT_NEAR(service.graph().TotalCost(), total_before, total_before * 0.01);
}

TEST(ServiceSimulatorTest, TransientThroughputDipRecovers) {
  ServiceConfig config = SmallServiceConfig("svc");
  config.emit_gcpu = false;  // Speed: only service-level metrics.
  ServiceSimulator service(config);

  InjectedEvent event;
  event.kind = EventKind::kTransientIssue;
  event.transient_kind = TransientKind::kServerFailure;
  event.service = "svc";
  event.start = Hours(4);
  event.duration = Hours(1);
  event.magnitude = 0.3;
  service.ScheduleEvent(event);

  TimeSeriesDatabase db;
  WriteBatch batch(&db);
  for (TimePoint t = Minutes(10); t <= Hours(8); t += Minutes(10)) {
    service.Tick(t, batch);
  }
  batch.Commit();
  const MetricId metric{"svc", MetricKind::kThroughput, "", ""};
  const std::optional<TimeSeries> series = db.Find(metric);
  ASSERT_TRUE(series.has_value());
  const double before = Mean(series->ValuesBetween(0, Hours(4)));
  const double during = Mean(series->ValuesBetween(Hours(4) + 1, Hours(5) + 1));
  const double after = Mean(series->ValuesBetween(Hours(6), Hours(8) + 1));
  EXPECT_LT(during, before * 0.85);   // Dip.
  EXPECT_GT(after, before * 0.95);    // Recovery.
}

TEST(ServiceSimulatorTest, GradualRegressionRampsUp) {
  ServiceConfig config = SmallServiceConfig("svc");
  ServiceSimulator service(config);
  const CallGraph& graph = service.graph();
  const std::vector<double> reach = graph.ReachProbabilities();
  NodeId target = kInvalidNode;
  for (size_t i = 0; i < reach.size(); ++i) {
    if (reach[i] > 0.02 && reach[i] < 0.5) {
      target = static_cast<NodeId>(i);
      break;
    }
  }
  ASSERT_NE(target, kInvalidNode);

  InjectedEvent event;
  event.kind = EventKind::kGradualRegression;
  event.service = "svc";
  event.subroutine = graph.node(target).name;
  event.start = Hours(2);
  event.ramp = Hours(6);
  event.magnitude = 0.6;
  service.ScheduleEvent(event);

  // The target's current gCPU expectation: its reach under the self costs
  // the last tick applied.
  const auto expected_gcpu = [&] {
    return graph.ReachProbabilities()[static_cast<size_t>(target)];
  };
  const double base = expected_gcpu();
  TimeSeriesDatabase db;
  WriteBatch batch(&db);
  for (TimePoint t = Minutes(10); t <= Hours(4); t += Minutes(10)) {
    service.Tick(t, batch);
  }
  const double mid = expected_gcpu();
  for (TimePoint t = Hours(4) + Minutes(10); t <= Hours(10); t += Minutes(10)) {
    service.Tick(t, batch);
  }
  batch.Commit();
  const double full = expected_gcpu();
  EXPECT_GT(mid, base);
  EXPECT_GT(full, mid);
}

TEST(FleetSimulatorTest, InjectEventRecordsGroundTruthAndCommit) {
  FleetSimulator fleet;
  fleet.AddService(SmallServiceConfig("svc"));

  InjectedEvent event;
  event.kind = EventKind::kStepRegression;
  event.service = "svc";
  event.subroutine = "sub_0";
  event.start = Hours(1);
  event.magnitude = 0.2;
  Commit commit;
  commit.time = Hours(1) - Minutes(5);
  commit.title = "change sub_0";
  commit.touched_subroutines = {"sub_0"};
  const int64_t event_id = fleet.InjectEvent(event, &commit);

  EXPECT_EQ(event_id, 0);
  ASSERT_EQ(fleet.ground_truth().size(), 1u);
  EXPECT_GE(fleet.ground_truth()[0].commit_id, 0);
  EXPECT_EQ(fleet.change_log().size(), 1u);
}

TEST(FleetSimulatorTest, RunPopulatesDatabase) {
  FleetSimulator fleet;
  ServiceConfig config = SmallServiceConfig("svc");
  config.emit_gcpu = false;
  fleet.AddService(config);
  fleet.Run(0, Hours(2));
  EXPECT_GT(fleet.db().total_points(), 0u);
}

TEST(ScenarioTest, GeneratesConfiguredEventMix) {
  FleetSimulator fleet;
  ScenarioOptions options;
  options.num_subroutines = 80;
  options.duration = Days(4);
  options.num_step_regressions = 3;
  options.num_gradual_regressions = 1;
  options.num_cost_shifts = 2;
  options.num_transients = 5;
  options.num_seasonal_shifts = 1;
  options.num_background_commits = 20;
  const Scenario scenario = GenerateScenario(fleet, options);
  ASSERT_NE(scenario.service, nullptr);

  int steps = 0;
  int graduals = 0;
  int shifts = 0;
  int transients = 0;
  int seasonal = 0;
  for (const InjectedEvent& event : fleet.ground_truth()) {
    switch (event.kind) {
      case EventKind::kStepRegression:
        ++steps;
        EXPECT_GE(event.commit_id, 0);  // Culprit commit exists.
        break;
      case EventKind::kGradualRegression:
        ++graduals;
        break;
      case EventKind::kCostShift:
        ++shifts;
        EXPECT_FALSE(event.shift_source.empty());
        break;
      case EventKind::kTransientIssue:
        ++transients;
        EXPECT_GT(event.duration, 0);
        break;
      case EventKind::kSeasonalShift:
        ++seasonal;
        break;
    }
  }
  EXPECT_EQ(steps, 3);
  EXPECT_EQ(graduals, 1);
  EXPECT_EQ(shifts, 2);
  EXPECT_EQ(transients, 5);
  EXPECT_EQ(seasonal, 1);
  // Background + culprit commits, time-ordered.
  EXPECT_GE(fleet.change_log().size(), 20u);
  const auto& commits = fleet.change_log().commits();
  for (size_t i = 1; i < commits.size(); ++i) {
    EXPECT_LE(commits[i - 1].time, commits[i].time);
  }
}

TEST(FeasibilitySimTest, FleetAverageNoiseShrinksWithServers) {
  Rng rng(21);
  FleetAverageOptions small;
  small.groups[0].num_servers = 500;
  small.groups[1].num_servers = 500;
  FleetAverageOptions large = small;
  large.groups[0].num_servers = 500000;
  large.groups[1].num_servers = 500000;
  const std::vector<double> noisy = SimulateFleetAverage(small, rng);
  const std::vector<double> smooth = SimulateFleetAverage(large, rng);
  EXPECT_GT(SampleVariance(std::span<const double>(noisy).subspan(0, 100)),
            SampleVariance(std::span<const double>(smooth).subspan(0, 100)) * 10.0);
}

TEST(FeasibilitySimTest, SingleServerSeriesStatistics) {
  Rng rng(22);
  const std::vector<double> series = SimulateSingleServerSeries(2000, 0.00005, rng);
  EXPECT_EQ(series.size(), 2000u);
  EXPECT_NEAR(Mean(series), 0.5, 0.02);
  for (double v : series) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

}  // namespace
}  // namespace fbdetect
