// Robustness harness: detection quality and survival on dirty fleets.
//
// The paper's pipeline ingests telemetry from hundreds of thousands of hosts;
// at that scale collectors crash, clocks skew, counters wrap, and points
// arrive twice or out of order. This bench runs the same labelled scenario
// fleet at fault rates {0, 0.01, 0.05, 0.10} (FaultInjectorConfig::AllKinds:
// every kind at that per-point/per-epoch probability on 30% of series) and
// measures, per rate:
//   - precision/recall against injected ground truth (group-based matching,
//     same standard as bench_fpfn_accounting)
//   - quarantine totals: what the sanitizer refused to trust, and ingest-time
//     duplicate/out-of-order rejects reconciled against the injector ledger
//   - ingest and detection wall time (graceful degradation must not be paid
//     for on the clean path)
// Writes BENCH_robustness.json. `--smoke` shrinks the world for CI;
// `--telemetry-out <path>` turns on the pipeline's stage clocks and dumps the
// database's and pipeline's telemetry as JSON (last rate wins).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/check.h"
#include "src/core/pipeline.h"
#include "src/fleet/fault_injector.h"
#include "src/observe/telemetry_export.h"
#include "src/fleet/fleet.h"
#include "src/fleet/scenario.h"
#include "src/stats/descriptive.h"

namespace fbdetect {
namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

struct RateResult {
  double rate = 0.0;
  uint64_t injected_faults = 0;
  size_t reports = 0;
  size_t true_regressions = 0;
  size_t false_positives = 0;
  size_t injected = 0;
  size_t caught = 0;
  double precision = 0.0;
  double recall = 0.0;
  size_t dirty_series = 0;
  uint64_t windows_quarantined = 0;
  uint64_t dropped_duplicate = 0;
  uint64_t dropped_out_of_order = 0;
  uint64_t decode_failures = 0;
  uint64_t detector_exceptions = 0;
  double ingest_ms = 0.0;
  double detect_ms = 0.0;
};

RateResult RunAtRate(double rate, bool smoke, uint64_t seed,
                     const std::string& telemetry_out) {
  FleetSimulator fleet;
  ScenarioOptions options;
  options.service_name = "dirty_fleet";
  options.num_servers = smoke ? 200 : 2000;
  options.num_subroutines = smoke ? 40 : 120;
  options.duration = smoke ? Days(6) : Days(14);
  options.samples_per_bucket = smoke ? 1000000 : 3000000;
  options.num_step_regressions = smoke ? 6 : 12;
  options.num_gradual_regressions = smoke ? 1 : 3;
  options.num_cost_shifts = smoke ? 2 : 6;
  options.num_transients = smoke ? 8 : 30;
  options.num_seasonal_shifts = 1;
  options.num_background_commits = smoke ? 40 : 150;
  options.min_regression_magnitude = 0.08;
  options.max_regression_magnitude = 0.8;
  options.gcpu_only = true;
  options.seed = seed;  // Same seed at every rate: identical ground truth.
  const Scenario scenario = GenerateScenario(fleet, options);

  FaultInjector injector(FaultInjectorConfig::AllKinds(rate, seed + 1));
  FleetIngestOptions ingest;
  ingest.threads = 4;
  if (rate > 0.0) {
    ingest.fault_injector = &injector;
  }
  const auto ingest_start = std::chrono::steady_clock::now();
  fleet.Run(scenario.begin, scenario.end, ingest);
  const double ingest_ms = MillisSince(ingest_start);

  PipelineOptions pipeline_options;
  pipeline_options.detection.threshold = 0.0002;
  pipeline_options.detection.windows.historical = smoke ? Days(2) : Days(4);
  pipeline_options.detection.windows.analysis = Hours(4);
  pipeline_options.detection.windows.extended = Hours(2);
  pipeline_options.detection.rerun_interval = Hours(4);
  pipeline_options.scan_threads = 4;
  pipeline_options.telemetry.enabled = !telemetry_out.empty();

  CallGraphCodeInfo code_info(&scenario.service->graph());
  Pipeline pipeline(&fleet.db(), &fleet.change_log(), &code_info, pipeline_options);
  const auto detect_start = std::chrono::steady_clock::now();
  const std::vector<Regression> reports = pipeline.RunPeriod(
      options.service_name,
      scenario.begin + pipeline_options.detection.windows.historical, scenario.end);
  const double detect_ms = MillisSince(detect_start);

  auto matches_event = [](const Regression& regression, const InjectedEvent& event) {
    if (std::llabs(static_cast<long long>(regression.change_time - event.start)) >
        static_cast<long long>(Days(1))) {
      return false;
    }
    if (!event.subroutine.empty() && regression.metric.entity == event.subroutine) {
      return true;
    }
    return event.commit_id >= 0 &&
           std::find(regression.candidate_root_causes.begin(),
                     regression.candidate_root_causes.end(),
                     event.commit_id) != regression.candidate_root_causes.end();
  };
  auto group_of = [&](const Regression& report) -> const RegressionGroup* {
    for (const RegressionGroup& group : pipeline.groups()) {
      for (const Regression& member : group.members) {
        if (member.metric == report.metric && member.change_time == report.change_time) {
          return &group;
        }
      }
    }
    return nullptr;
  };
  auto event_hit = [&](const Regression& report, const InjectedEvent& event) {
    if (matches_event(report, event)) {
      return true;
    }
    const RegressionGroup* group = group_of(report);
    if (group == nullptr) {
      return false;
    }
    for (const Regression& member : group->members) {
      if (matches_event(member, event)) {
        return true;
      }
    }
    return false;
  };

  RateResult result;
  result.rate = rate;
  result.injected_faults = injector.ledger().total();
  result.reports = reports.size();
  for (const Regression& report : reports) {
    bool is_true = false;
    for (const InjectedEvent& event : fleet.ground_truth()) {
      if (event.IsTrueRegression() && event_hit(report, event)) {
        is_true = true;
        break;
      }
    }
    if (is_true) {
      ++result.true_regressions;
    } else {
      ++result.false_positives;
    }
  }
  for (const InjectedEvent& event : fleet.ground_truth()) {
    if (!event.IsTrueRegression()) {
      continue;
    }
    ++result.injected;
    bool caught = false;
    for (const RegressionGroup& group : pipeline.groups()) {
      for (const Regression& member : group.members) {
        if (matches_event(member, event)) {
          caught = true;
          break;
        }
      }
      if (caught) {
        break;
      }
    }
    result.caught += caught ? 1 : 0;
  }
  result.precision = result.reports == 0
                         ? 1.0
                         : static_cast<double>(result.true_regressions) /
                               static_cast<double>(result.reports);
  result.recall = result.injected == 0
                      ? 1.0
                      : static_cast<double>(result.caught) /
                            static_cast<double>(result.injected);

  const QuarantineReport quarantine = pipeline.quarantine_report();
  result.dirty_series = quarantine.records.size();
  result.windows_quarantined = quarantine.total_windows_quarantined();
  result.dropped_duplicate = quarantine.total_dropped_duplicate();
  result.dropped_out_of_order = quarantine.total_dropped_out_of_order();
  result.decode_failures = quarantine.total_decode_failures();
  result.detector_exceptions = quarantine.total_exceptions();
  result.ingest_ms = ingest_ms;
  result.detect_ms = detect_ms;
  if (!telemetry_out.empty()) {
    // Each rate overwrites the file; the artifact holds the last (highest)
    // rate's attrition and quarantine counters.
    FBD_CHECK(WriteTelemetryFile({&fleet.db().telemetry(), &pipeline.telemetry()}, telemetry_out));
  }
  return result;
}

int Main(int argc, char** argv) {
  bool smoke = false;
  std::string telemetry_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--telemetry-out") == 0 && i + 1 < argc) {
      telemetry_out = argv[++i];
    }
  }
  PrintHeader(std::string("robustness — precision/recall on dirty fleets") +
              (smoke ? " [smoke]" : ""));

  const std::vector<double> rates = {0.0, 0.01, 0.05, 0.10};
  const uint64_t kSeed = 77;
  std::vector<RateResult> results;
  const std::vector<int> widths = {8, 10, 9, 7, 7, 11, 9, 8, 12, 11, 11};
  PrintRow({"rate", "faults", "reports", "TR", "FP", "recall", "prec", "dirty",
            "quarantined", "ingest_ms", "detect_ms"},
           widths);
  for (const double rate : rates) {
    RateResult r = RunAtRate(rate, smoke, kSeed, telemetry_out);
    PrintRow({FormatDouble(rate, "%.2f"), std::to_string(r.injected_faults),
              std::to_string(r.reports), std::to_string(r.true_regressions),
              std::to_string(r.false_positives), FormatPercent(r.recall, 1),
              FormatPercent(r.precision, 1), std::to_string(r.dirty_series),
              std::to_string(r.windows_quarantined), FormatDouble(r.ingest_ms, "%.0f"),
              FormatDouble(r.detect_ms, "%.0f")},
             widths);
    results.push_back(r);
  }

  // The clean run is the reference: faults must not invent regressions (the
  // false-positive count may only move by what the quarantine absorbed) and
  // recall may degrade only on series the injector actually touched.
  const RateResult& clean = results.front();
  std::printf("\nclean reference: %zu reports, recall %s, precision %s\n", clean.reports,
              FormatPercent(clean.recall, 1).c_str(),
              FormatPercent(clean.precision, 1).c_str());
  for (size_t i = 1; i < results.size(); ++i) {
    const RateResult& r = results[i];
    std::printf("  rate %.2f: recall %+0.1f pts, precision %+0.1f pts, "
                "%llu dup + %llu ooo rejected at ingest, %llu decode failures, "
                "%llu detector exceptions (all isolated)\n",
                r.rate, (r.recall - clean.recall) * 100.0,
                (r.precision - clean.precision) * 100.0,
                static_cast<unsigned long long>(r.dropped_duplicate),
                static_cast<unsigned long long>(r.dropped_out_of_order),
                static_cast<unsigned long long>(r.decode_failures),
                static_cast<unsigned long long>(r.detector_exceptions));
  }

  FILE* json = std::fopen("BENCH_robustness.json", "w");
  FBD_CHECK(json != nullptr);
  std::fprintf(json, "{\n");
  WriteHardwareJson(json);
  std::fprintf(json, ",\n");
  std::fprintf(json, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(json, "  \"rates\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const RateResult& r = results[i];
    std::fprintf(json,
                 "    {\"rate\": %.2f, \"injected_faults\": %llu, \"reports\": %zu, "
                 "\"true_regressions\": %zu, \"false_positives\": %zu, "
                 "\"injected\": %zu, \"caught\": %zu, \"precision\": %.4f, "
                 "\"recall\": %.4f, \"dirty_series\": %zu, "
                 "\"windows_quarantined\": %llu, \"dropped_duplicate\": %llu, "
                 "\"dropped_out_of_order\": %llu, \"decode_failures\": %llu, "
                 "\"detector_exceptions\": %llu, \"ingest_ms\": %.1f, "
                 "\"detect_ms\": %.1f}%s\n",
                 r.rate, static_cast<unsigned long long>(r.injected_faults), r.reports,
                 r.true_regressions, r.false_positives, r.injected, r.caught, r.precision,
                 r.recall, r.dirty_series,
                 static_cast<unsigned long long>(r.windows_quarantined),
                 static_cast<unsigned long long>(r.dropped_duplicate),
                 static_cast<unsigned long long>(r.dropped_out_of_order),
                 static_cast<unsigned long long>(r.decode_failures),
                 static_cast<unsigned long long>(r.detector_exceptions), r.ingest_ms,
                 r.detect_ms, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n");
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("\nwrote BENCH_robustness.json\n");
  return 0;
}

}  // namespace
}  // namespace fbdetect

int main(int argc, char** argv) { return fbdetect::Main(argc, argv); }
