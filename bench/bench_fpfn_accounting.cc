// §6.2 reproduction: false-positive / false-negative accounting.
//
// The paper (FrontFaaS, one month): 217 reports; of 70 developer-confirmed,
// 49 were true regressions and 21 false positives (15 of the 21 were cost
// shifts); a developer draws a ticket only once every ~4 years; and FBDetect
// missed no incident it was supposed to catch.
//
// With labelled ground truth we can account exactly. A report is a TRUE
// regression when a pipeline group member matches an injected regression
// (subroutine or culprit commit, within a day); otherwise it is an FP, which
// we sub-classify by what it coincides with (a cost shift, a transient, or
// nothing = noise/drift). False negatives are injected regressions matching
// no group. The per-developer ticket arithmetic is reproduced at fleet scale.
#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <optional>

#include "bench/bench_util.h"
#include "src/core/pipeline.h"
#include "src/fleet/fleet.h"
#include "src/fleet/scenario.h"
#include "src/stats/descriptive.h"

namespace fbdetect {
namespace {

void Run(uint64_t seed) {
  FleetSimulator fleet;
  ScenarioOptions options;
  options.service_name = "frontfaas_like";
  options.num_subroutines = 180;
  options.duration = Days(21);
  options.samples_per_bucket = 3000000;
  options.num_step_regressions = 16;
  options.num_gradual_regressions = 4;
  options.num_cost_shifts = 10;
  options.num_transients = 40;
  options.num_seasonal_shifts = 2;
  options.num_background_commits = 250;
  options.min_regression_magnitude = 0.05;
  options.max_regression_magnitude = 0.8;
  options.gcpu_only = true;  // One threshold, one metric family.
  options.seed = seed;
  const Scenario scenario = GenerateScenario(fleet, options);
  fleet.Run(scenario.begin, scenario.end);

  PipelineOptions pipeline_options;
  pipeline_options.detection.threshold = 0.0002;
  pipeline_options.detection.windows.historical = Days(4);
  pipeline_options.detection.windows.analysis = Hours(4);
  pipeline_options.detection.windows.extended = Hours(2);
  pipeline_options.detection.rerun_interval = Hours(4);

  CallGraphCodeInfo code_info(&scenario.service->graph());
  Pipeline pipeline(&fleet.db(), &fleet.change_log(), &code_info, pipeline_options);
  const std::vector<Regression> reports =
      pipeline.RunPeriod("frontfaas_like", scenario.begin + Days(4), scenario.end);

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

  // Classify every report through its pairwise GROUP: the representative is
  // often an upstream caller of the actually-regressed subroutine, while a
  // group member names the subroutine or carries the culprit commit.
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
  size_t true_regressions = 0;
  size_t fp_cost_shift = 0;
  size_t fp_transient = 0;
  size_t fp_other = 0;
  for (const Regression& report : reports) {
    const InjectedEvent* match = nullptr;
    const RegressionGroup* group = group_of(report);
    for (const InjectedEvent& event : fleet.ground_truth()) {
      bool hit = matches_event(report, event);
      if (!hit && group != nullptr) {
        for (const Regression& member : group->members) {
          if (matches_event(member, event)) {
            hit = true;
            break;
          }
        }
      }
      if (hit) {
        // True regressions take precedence over coincidental transients.
        if (match == nullptr || event.IsTrueRegression()) {
          match = &event;
        }
        if (event.IsTrueRegression()) {
          break;
        }
      }
    }
    if (match != nullptr && match->IsTrueRegression()) {
      ++true_regressions;
    } else if (match != nullptr && match->kind == EventKind::kCostShift) {
      ++fp_cost_shift;
    } else if (match != nullptr && match->kind == EventKind::kTransientIssue) {
      ++fp_transient;
    } else {
      ++fp_other;  // Noise / drift / seasonal residue.
    }
  }

  // False negatives via group membership. The paper's standard is missing a
  // regression FBDetect was SUPPOSED to catch, so split the injected set by
  // whether the expected absolute gCPU delta (baseline x magnitude) clears
  // the configured threshold at all.
  size_t injected = 0;
  size_t missed = 0;
  size_t detectable = 0;
  size_t missed_detectable = 0;
  for (const InjectedEvent& event : fleet.ground_truth()) {
    if (!event.IsTrueRegression()) {
      continue;
    }
    ++injected;
    const std::optional<TimeSeries> series = fleet.db().Find(
        {options.service_name, MetricKind::kGcpu, event.subroutine, ""});
    double expected_delta = 0.0;
    if (series.has_value()) {
      const std::vector<double> before = series->ValuesBetween(0, event.start);
      if (!before.empty()) {
        expected_delta = Mean(before) * event.magnitude;
      }
    }
    const bool is_detectable = expected_delta >= pipeline_options.detection.threshold;
    detectable += is_detectable ? 1 : 0;
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
    missed += caught ? 0 : 1;
    if (is_detectable && !caught) {
      ++missed_detectable;
    }
  }

  const size_t false_positives = fp_cost_shift + fp_transient + fp_other;
  std::printf("reports:                    %zu over %lld days\n", reports.size(),
              static_cast<long long>((options.duration - Days(4)) / kDay));
  std::printf("  true regressions:         %zu\n", true_regressions);
  std::printf("  false positives:          %zu\n", false_positives);
  std::printf("    coinciding w/ cost shift: %zu\n", fp_cost_shift);
  std::printf("    coinciding w/ transient:  %zu\n", fp_transient);
  std::printf("    noise / drift:            %zu\n", fp_other);
  std::printf("false negatives:            %zu of %zu injected regressions\n", missed,
              injected);
  std::printf("  ...of which ABOVE the configured threshold (\"supposed to catch\"):\n"
              "                            %zu of %zu\n", missed_detectable, detectable);
  std::printf("TR:FP ratio:                %.2f (paper: 49:21 = 2.33 among confirmed)\n",
              false_positives == 0
                  ? 0.0
                  : static_cast<double>(true_regressions) / false_positives);

  // The per-developer ticket arithmetic at the paper's fleet scale: 217
  // reports/month over tens of thousands of developers.
  const double reports_per_month =
      static_cast<double>(reports.size()) * 30.0 /
      static_cast<double>((options.duration - Days(4)) / kDay);
  const double developers = 20000.0;
  const double years_between_tickets = developers / (reports_per_month * 12.0);
  std::printf("\nticket arithmetic at paper scale (%0.0f developers):\n", developers);
  std::printf("  %.0f reports/month for this (single) service -> one ticket per developer\n"
              "  every %.0f years; the paper's 217/month across FrontFaaS gives ~4 years.\n",
              reports_per_month, years_between_tickets);
}

}  // namespace
}  // namespace fbdetect

int main() {
  fbdetect::PrintHeader("§6.2 — false-positive / false-negative accounting");
  fbdetect::Run(77);
  return 0;
}
