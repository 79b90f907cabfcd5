// Figure 1 reproduction: the three challenge scenarios.
//  (a) a true 0.005% regression that is barely visible at single-server
//      noise levels — FBDetect must catch it (it becomes detectable at the
//      subroutine level / fleet scale; see Figures 2-3 benches);
//  (b) a false positive from a cost shift — the cost-shift detector must
//      filter it;
//  (c) a false positive from a transient throughput dip — the went-away
//      detector must filter it.
// The bench constructs each scenario, scans it through the pipeline's
// single-series entry (Pipeline::ScanSeries) and prints the verdict of the
// relevant FBDetect stage next to the paper's expectation.
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/random.h"
#include "src/core/cost_shift.h"
#include "src/core/pipeline.h"
#include "src/core/workload_config.h"
#include "src/fleet/scenario.h"
#include "src/tsdb/database.h"
#include "src/tsdb/timeseries.h"

namespace fbdetect {
namespace {

constexpr Duration kTick = Minutes(10);

DetectionConfig BenchConfig() {
  DetectionConfig config;
  config.threshold = 0.0005;
  config.windows.historical = Days(2);
  config.windows.analysis = Hours(4);
  config.windows.extended = Hours(2);
  return config;
}

PipelineOptions BenchOptions() {
  PipelineOptions options;
  options.detection = BenchConfig();
  return options;
}

void ScenarioA() {
  std::printf("\n(a) True 0.005%% regression on a single noisy server\n");
  Rng rng(1);
  const std::vector<double> values = SimulateSingleServerSeries(400, 0.00005, rng);
  std::printf("    %s\n", Sparkline(values).c_str());
  std::printf("    single-server noise sd=%.4f vs regression 0.00005: invisible "
              "(paper: must be caught via variance reduction, see Fig. 2/3 benches)\n",
              SampleStdDev(values));
}

void ScenarioB() {
  std::printf("\n(b) False positive from a cost shift (code refactoring)\n");
  // Two same-class methods; at t*, 60%% of method_b's cost moves to method_a.
  TimeSeriesDatabase db;
  const InternedMetricId method_a = db.Intern({"svc", MetricKind::kGcpu, "method_a", ""});
  const InternedMetricId method_b = db.Intern({"svc", MetricKind::kGcpu, "method_b", ""});
  WriteBatch batch(&db);
  const DetectionConfig config = BenchConfig();
  const Duration total = config.windows.Total();
  const TimePoint shift_at = total - Hours(4);
  Rng rng(2);
  std::vector<double> a_values;
  std::vector<double> b_values;
  for (TimePoint t = 0; t < total; t += kTick) {
    const bool post = t >= shift_at;
    a_values.push_back(rng.Normal(post ? 0.0172 : 0.0100, 0.0004));
    b_values.push_back(rng.Normal(post ? 0.0048 : 0.0120, 0.0004));
    batch.Add(method_a, t, a_values.back());
    batch.Add(method_b, t, b_values.back());
  }
  batch.Commit();
  std::printf("    method_a gCPU: %s\n", Sparkline(a_values).c_str());
  std::printf("    method_b gCPU: %s\n", Sparkline(b_values).c_str());

  // Stage 1: the change-point stage DOES flag method_a (as the paper says,
  // the rise looks like an obvious regression), and it survives the scan.
  Pipeline pipeline(&db, nullptr, nullptr, BenchOptions());
  const SeriesVerdicts verdicts =
      pipeline.ScanSeries({"svc", MetricKind::kGcpu, "method_a", ""}, total);
  std::printf("    change-point stage flags method_a: %s\n",
              verdicts.change_point.has_value() ? "YES" : "no");
  // The short-term survivor; the long-term path may keep the rise as well.
  const Regression* candidate = nullptr;
  for (const Regression& survivor : verdicts.survivors) {
    if (!survivor.long_term) {
      candidate = &survivor;
    }
  }

  // Cost-shift detector: the class domain's total is flat -> filtered.
  class PairInfo : public CodeInfoProvider {
   public:
    std::vector<std::string> CallersOf(const std::string&) const override { return {}; }
    std::string ClassOf(const std::string&) const override { return "Widget"; }
    std::vector<std::string> ClassMembers(const std::string&) const override {
      return {"method_a", "method_b"};
    }
    bool IsDescendant(const std::string&, const std::string&) const override { return false; }
  };
  PairInfo code_info;
  CostShiftDetector detector(&db);
  detector.AddDomainDetector(std::make_unique<ClassDomainDetector>(&code_info));
  if (candidate != nullptr) {
    const CostShiftVerdict verdict = detector.Evaluate(*candidate);
    std::printf("    cost-shift detector verdict: %s (domain %s)\n",
                verdict.is_cost_shift ? "COST SHIFT -> filtered (correct)" : "kept (WRONG)",
                verdict.domain.c_str());
  }
}

void ScenarioC() {
  std::printf("\n(c) False positive from a transient throughput dip\n");
  const DetectionConfig config = BenchConfig();
  const Duration total = config.windows.Total();
  const TimePoint dip_start = total - Hours(5);
  const TimePoint dip_end = total - Hours(3);
  Rng rng(3);
  std::vector<double> values;
  for (TimePoint t = 0; t < total; t += kTick) {
    const bool dipped = t >= dip_start && t < dip_end;
    values.push_back(rng.Normal(dipped ? 70.0 : 120.0, 3.0));
  }
  std::printf("    throughput:    %s\n", Sparkline(values).c_str());
  const MetricId metric{"svc", MetricKind::kThroughput, "", ""};
  TimeSeriesDatabase db;
  const InternedMetricId id = db.Intern(metric);
  WriteBatch batch(&db);
  for (size_t i = 0; i < values.size(); ++i) {
    batch.Add(id, static_cast<TimePoint>(i) * kTick, values[i]);
  }
  batch.Commit();
  Pipeline pipeline(&db, nullptr, nullptr, BenchOptions());
  const SeriesVerdicts verdicts = pipeline.ScanSeries(metric, total);
  std::printf("    change-point stage flags the dip: %s\n",
              verdicts.change_point.has_value() ? "YES" : "no");
  if (verdicts.went_away.has_value()) {
    const WentAwayVerdict& verdict = *verdicts.went_away;
    std::printf("    went-away detector verdict: %s (gone_away=%d)\n",
                verdict.keep ? "kept (WRONG)" : "TRANSIENT -> filtered (correct)",
                verdict.gone_away);
  }
}

}  // namespace
}  // namespace fbdetect

int main() {
  fbdetect::PrintHeader(
      "Figure 1 — three challenges: tiny true regression, cost-shift FP, transient FP");
  fbdetect::ScenarioA();
  fbdetect::ScenarioB();
  fbdetect::ScenarioC();
  std::printf("\n");
  return 0;
}
