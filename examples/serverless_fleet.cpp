// A FrontFaaS-style serverless fleet, end to end:
//   fleet simulator -> stack-trace profiler -> TSDB -> FBDetect pipeline,
// with a code-change log so root-cause analysis can name culprits.
//
// The scenario injects step/gradual regressions (with culprit commits), cost
// shifts, transient issues, and seasonal shifts over two simulated weeks;
// the pipeline reports deduplicated regressions with ranked root causes.
//
// Build & run:  ./build/examples/serverless_fleet
//               ./build/examples/serverless_fleet --telemetry-out telemetry.json
#include <cstdio>
#include <string>

#include "src/core/pipeline.h"
#include "src/fleet/fleet.h"
#include "src/fleet/scenario.h"
#include "src/observe/telemetry_export.h"

using namespace fbdetect;

int main(int argc, char** argv) {
  std::string telemetry_out;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--telemetry-out" && i + 1 < argc) {
      telemetry_out = argv[++i];
    }
  }
  // --- Simulate the fleet ---------------------------------------------------
  FleetSimulator fleet;
  ScenarioOptions scenario_options;
  scenario_options.service_name = "frontfaas_demo";
  scenario_options.language = "php";
  scenario_options.num_servers = 5000;
  scenario_options.num_subroutines = 120;
  scenario_options.duration = Days(14);
  scenario_options.num_step_regressions = 4;
  scenario_options.num_gradual_regressions = 1;
  scenario_options.num_cost_shifts = 2;
  scenario_options.num_transients = 15;
  scenario_options.num_background_commits = 80;
  scenario_options.seed = 1234;
  const Scenario scenario = GenerateScenario(fleet, scenario_options);
  std::printf("Simulating %d days of %s (%d servers, %d subroutines)...\n",
              static_cast<int>(scenario_options.duration / kDay),
              scenario_options.service_name.c_str(), scenario_options.num_servers,
              scenario_options.num_subroutines);
  fleet.Run(scenario.begin, scenario.end);
  std::printf("  %zu time series, %zu points, %zu commits in the change log\n",
              fleet.db().metric_count(), fleet.db().total_points(),
              fleet.change_log().size());

  std::printf("\nInjected ground truth:\n");
  for (const InjectedEvent& event : fleet.ground_truth()) {
    std::printf("  [%s] %s%s at day %.1f (magnitude %.0f%%)\n", EventKindName(event.kind),
                event.subroutine.empty() ? "(service level)" : event.subroutine.c_str(),
                event.kind == EventKind::kCostShift
                    ? (" <- " + event.shift_source).c_str()
                    : "",
                static_cast<double>(event.start) / kDay, event.magnitude * 100.0);
  }

  // --- Detect ----------------------------------------------------------------
  PipelineOptions options;
  options.detection.threshold = 0.0003;
  options.detection.windows.historical = Days(4);
  options.detection.windows.analysis = Hours(4);
  options.detection.windows.extended = Hours(2);
  options.detection.rerun_interval = Hours(4);
  options.telemetry.enabled = !telemetry_out.empty();

  CallGraphCodeInfo code_info(&scenario.service->graph());
  Pipeline pipeline(&fleet.db(), &fleet.change_log(), &code_info, options);
  const std::vector<Regression> reports =
      pipeline.RunPeriod(scenario_options.service_name, scenario.begin + Days(4), scenario.end);

  std::printf("\nFBDetect reports (%zu):\n", reports.size());
  for (const Regression& report : reports) {
    std::printf("  %s\n", report.Summary().c_str());
    for (const RankedCause& cause : report.root_causes) {
      const Commit* commit = fleet.change_log().Find(cause.commit_id);
      std::printf("      suspect commit #%lld (score %.2f): %s\n",
                  static_cast<long long>(cause.commit_id), cause.score,
                  commit != nullptr ? commit->title.c_str() : "?");
    }
  }

  const FunnelStats funnel = pipeline.short_term_funnel();
  std::printf("\nShort-term funnel: %llu change points -> %llu went-away -> %llu seasonality"
              " -> %llu threshold -> %llu merged/deduped/reported\n",
              static_cast<unsigned long long>(funnel.change_points),
              static_cast<unsigned long long>(funnel.after_went_away),
              static_cast<unsigned long long>(funnel.after_seasonality),
              static_cast<unsigned long long>(funnel.after_threshold),
              static_cast<unsigned long long>(funnel.after_pairwise));
  if (!telemetry_out.empty() &&
      WriteTelemetryFile({&fleet.db().telemetry(), &pipeline.telemetry()}, telemetry_out)) {
    std::printf("Wrote telemetry to %s\n", telemetry_out.c_str());
  }
  return 0;
}
