// Invoicer: tiny-service detection (§3) with ticket-style reports.
//
// Invoicer runs on just 16 servers. To gather enough stack-trace samples,
// eBPF samples about once per server per second (vs once per minute for
// FrontFaaS) and the windows are long: 14-day history, 1-day analysis, 1-day
// extended (Table 1), detecting gCPU regressions down to 0.5%.
//
// This example simulates Invoicer, injects one 1.2% regression in a billing
// subroutine, runs the pipeline with the Table 1 Invoicer preset, and prints
// developer-facing tickets via the report module.
//
// Build & run:  ./build/examples/invoicer
//               ./build/examples/invoicer --telemetry-out telemetry.json
#include <cstdio>
#include <string>

#include "src/core/pipeline.h"
#include "src/fleet/fleet.h"
#include "src/observe/telemetry_export.h"
#include "src/report/report.h"

using namespace fbdetect;

int main(int argc, char** argv) {
  std::string telemetry_out;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--telemetry-out" && i + 1 < argc) {
      telemetry_out = argv[++i];
    }
  }
  FleetSimulator fleet;
  ServiceConfig config;
  config.name = "invoicer";
  config.num_servers = 16;
  config.call_graph.num_subroutines = 80;
  // ~1 sample/server/second over a 1-hour bucket: 16 * 3600 ≈ 57600 samples.
  config.sampling.samples_per_bucket = 57600;
  config.sampling.bucket_width = Hours(1);
  config.tick = Hours(1);
  config.num_endpoints = 1;
  config.num_seasonal_subroutines = 6;
  config.seed = 20;
  fleet.AddService(config);

  // Find a mid-weight leaf billing subroutine and regress it.
  ServiceSimulator* service = fleet.FindService("invoicer");
  const CallGraph& graph = service->graph();
  const std::vector<double> reach = graph.ReachProbabilities();
  NodeId target = kInvalidNode;
  for (size_t i = 0; i < reach.size(); ++i) {
    if (reach[i] > 0.02 && reach[i] < 0.2 && graph.edges(static_cast<NodeId>(i)).empty()) {
      target = static_cast<NodeId>(i);
      break;
    }
  }
  if (target == kInvalidNode) {
    std::fprintf(stderr, "no suitable target subroutine\n");
    return 1;
  }

  const Duration total = Days(18);
  InjectedEvent event;
  event.kind = EventKind::kStepRegression;
  event.service = "invoicer";
  event.subroutine = graph.node(target).name;
  event.start = Days(15);
  // +30% of a ~4% subroutine: a ~1.2% absolute gCPU regression, comfortably
  // above the 0.5% Invoicer threshold.
  event.magnitude = 0.30;
  Commit commit;
  commit.time = event.start - Hours(2);
  commit.title = "Support new invoice currency in " + event.subroutine;
  commit.description = "Adds currency conversion inside " + event.subroutine + ".";
  commit.touched_subroutines = {event.subroutine};
  fleet.InjectEvent(event, &commit);

  std::printf("Simulating %lld days of invoicer (16 servers, 1 sample/server/s)...\n",
              static_cast<long long>(total / kDay));
  fleet.Run(0, total);

  // Table 1 Invoicer preset, analysis/extended scaled to the sim length.
  PipelineOptions options;
  options.detection = InvoicerShortConfig();
  options.detection.enable_long_term = false;
  options.telemetry.enabled = !telemetry_out.empty();

  CallGraphCodeInfo code_info(&graph);
  Pipeline pipeline(&fleet.db(), &fleet.change_log(), &code_info, options);
  const std::vector<Regression> reports =
      pipeline.RunPeriod("invoicer", Days(14), total);

  std::printf("\n%zu ticket(s):\n\n", reports.size());
  for (const Regression& report : reports) {
    std::printf("%s\n", RenderTicket(report, &fleet.change_log()).c_str());
    std::printf("JSON: %s\n\n", ToJsonLine(report).c_str());
  }
  std::printf("%s", RenderFunnel(pipeline.short_term_funnel(), pipeline.long_term_funnel(),
                                 /*long_term_enabled=*/false)
                       .c_str());
  if (!telemetry_out.empty()) {
    const TelemetryRegistries registries = {&fleet.db().telemetry(), &pipeline.telemetry()};
    std::printf("\n%s", RenderTelemetry(registries).c_str());
    if (WriteTelemetryFile(registries, telemetry_out)) {
      std::printf("\nWrote telemetry to %s\n", telemetry_out.c_str());
    }
  }
  return 0;
}
