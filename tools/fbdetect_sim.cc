// fbdetect_sim — command-line driver for the FBDetect pipeline on a
// configurable simulated fleet.
//
// Generates a labelled scenario (regressions, cost shifts, transients),
// runs the full Fig. 6 pipeline, and prints tickets, the funnel, and a
// precision/recall scorecard against the injected ground truth.
//
// Usage:
//   fbdetect_sim [--days N] [--subroutines N] [--servers N]
//                [--regressions N] [--cost-shifts N] [--transients N]
//                [--threshold F] [--rerun-hours N] [--seed N]
//                [--threads N] [--json] [--quiet]
//                [--telemetry-out PATH]
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/core/pipeline.h"
#include "src/fleet/fleet.h"
#include "src/fleet/scenario.h"
#include "src/observe/telemetry_export.h"
#include "src/report/report.h"
#include "tools/parse_flag.h"

namespace fbdetect {
namespace {

struct CliOptions {
  int days = 14;
  int subroutines = 150;
  int servers = 5000;
  int regressions = 6;
  int cost_shifts = 3;
  int transients = 20;
  double threshold = 0.0003;
  int rerun_hours = 4;
  uint64_t seed = 42;
  int threads = 1;
  bool json = false;
  bool quiet = false;
  std::string telemetry_out;
};

void PrintUsage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --days N          simulated days (default 14)\n"
      "  --subroutines N   call-graph size (default 150)\n"
      "  --servers N       fleet size (default 5000)\n"
      "  --regressions N   injected true regressions (default 6)\n"
      "  --cost-shifts N   injected cost shifts (default 3)\n"
      "  --transients N    injected transient issues (default 20)\n"
      "  --threshold F     absolute gCPU detection threshold (default 0.0003)\n"
      "  --rerun-hours N   re-run interval in hours (default 4)\n"
      "  --seed N          simulation seed (default 42)\n"
      "  --threads N       parallel scan threads (default 1)\n"
      "  --json            print reports as JSON lines instead of tickets\n"
      "  --quiet           suppress tickets; print only the scorecard\n"
      "  --telemetry-out PATH  time the pipeline stages and write the telemetry\n"
      "                        JSON export to PATH after the run\n",
      argv0);
}

bool ParseArgs(int argc, char** argv, CliOptions& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", name);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      PrintUsage(argv[0]);
      return false;
    } else if (arg == "--json") {
      options.json = true;
    } else if (arg == "--quiet") {
      options.quiet = true;
    } else if (arg == "--days") {
      if (!ParseFlag("--days", next_value("--days"), &options.days)) return false;
    } else if (arg == "--subroutines") {
      if (!ParseFlag("--subroutines", next_value("--subroutines"), &options.subroutines)) {
        return false;
      }
    } else if (arg == "--servers") {
      if (!ParseFlag("--servers", next_value("--servers"), &options.servers)) return false;
    } else if (arg == "--regressions") {
      if (!ParseFlag("--regressions", next_value("--regressions"), &options.regressions)) {
        return false;
      }
    } else if (arg == "--cost-shifts") {
      if (!ParseFlag("--cost-shifts", next_value("--cost-shifts"), &options.cost_shifts)) {
        return false;
      }
    } else if (arg == "--transients") {
      if (!ParseFlag("--transients", next_value("--transients"), &options.transients)) {
        return false;
      }
    } else if (arg == "--threshold") {
      if (!ParseFlag("--threshold", next_value("--threshold"), &options.threshold)) {
        return false;
      }
    } else if (arg == "--rerun-hours") {
      if (!ParseFlag("--rerun-hours", next_value("--rerun-hours"), &options.rerun_hours)) {
        return false;
      }
    } else if (arg == "--seed") {
      if (!ParseFlag("--seed", next_value("--seed"), &options.seed)) return false;
    } else if (arg == "--threads") {
      if (!ParseFlag("--threads", next_value("--threads"), &options.threads)) return false;
    } else if (arg == "--telemetry-out") {
      const char* v = next_value("--telemetry-out");
      if (v == nullptr) return false;
      options.telemetry_out = v;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      PrintUsage(argv[0]);
      return false;
    }
  }
  if (options.days < 6 || options.subroutines < 10 || options.rerun_hours < 1) {
    std::fprintf(stderr, "invalid configuration (need days>=6, subroutines>=10, rerun>=1)\n");
    return false;
  }
  return true;
}

int Run(const CliOptions& cli) {
  FleetSimulator fleet;
  ScenarioOptions scenario_options;
  scenario_options.service_name = "sim_service";
  scenario_options.num_servers = cli.servers;
  scenario_options.num_subroutines = cli.subroutines;
  scenario_options.duration = Days(cli.days);
  scenario_options.num_step_regressions = cli.regressions;
  scenario_options.num_gradual_regressions = 0;
  scenario_options.num_cost_shifts = cli.cost_shifts;
  scenario_options.num_transients = cli.transients;
  scenario_options.seed = cli.seed;
  const Scenario scenario = GenerateScenario(fleet, scenario_options);

  if (!cli.quiet) {
    std::printf("simulating %d days, %d subroutines, %d servers (seed %llu)...\n", cli.days,
                cli.subroutines, cli.servers, static_cast<unsigned long long>(cli.seed));
  }
  fleet.Run(scenario.begin, scenario.end);

  PipelineOptions options;
  options.detection.threshold = cli.threshold;
  options.detection.windows.historical = Days(4);
  options.detection.windows.analysis = Hours(4);
  options.detection.windows.extended = Hours(2);
  options.detection.rerun_interval = Hours(cli.rerun_hours);
  options.scan_threads = cli.threads;
  options.telemetry.enabled = !cli.telemetry_out.empty();

  CallGraphCodeInfo code_info(&scenario.service->graph());
  Pipeline pipeline(&fleet.db(), &fleet.change_log(), &code_info, options);
  const std::vector<Regression> reports =
      pipeline.RunPeriod(scenario_options.service_name, scenario.begin + Days(4), scenario.end);

  if (!cli.quiet) {
    for (const Regression& report : reports) {
      if (cli.json) {
        std::printf("%s\n", ToJsonLine(report).c_str());
      } else {
        std::printf("%s\n", RenderTicket(report, &fleet.change_log()).c_str());
      }
    }
    std::printf("%s\n", RenderFunnel(pipeline.short_term_funnel(),
                                     pipeline.long_term_funnel(), true)
                           .c_str());
  }

  // Scorecard against ground truth (group-membership matching, as in the
  // Table 3 bench).
  size_t injected = 0;
  size_t caught = 0;
  for (const InjectedEvent& event : fleet.ground_truth()) {
    if (!event.IsTrueRegression()) {
      continue;
    }
    ++injected;
    for (const RegressionGroup& group : pipeline.groups()) {
      bool matched = false;
      for (const Regression& member : group.members) {
        if (std::llabs(static_cast<long long>(member.change_time - event.start)) <=
                static_cast<long long>(Days(1)) &&
            member.metric.entity == event.subroutine) {
          matched = true;
          break;
        }
      }
      if (matched) {
        ++caught;
        break;
      }
    }
  }
  std::printf("scorecard: %zu reports; %zu/%zu injected regressions caught\n", reports.size(),
              caught, injected);
  if (!cli.telemetry_out.empty()) {
    if (!WriteTelemetryFile({&fleet.db().telemetry(), &pipeline.telemetry()}, cli.telemetry_out)) {
      std::fprintf(stderr, "failed to write %s\n", cli.telemetry_out.c_str());
      return 1;
    }
    if (!cli.quiet) {
      std::printf("wrote telemetry to %s\n", cli.telemetry_out.c_str());
    }
  }
  return 0;
}

}  // namespace
}  // namespace fbdetect

int main(int argc, char** argv) {
  fbdetect::CliOptions options;
  if (!fbdetect::ParseArgs(argc, argv, options)) {
    return 1;
  }
  return fbdetect::Run(options);
}
