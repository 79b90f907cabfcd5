// Detection-quality bake-off between the two change-point detectors.
//
// DetectionConfig::change_point_detector picks FBDetect's CUSUM+EM detector
// (§5.2.1, the default) or E-divisive means, Hunter's detector. This bench
// puts both on IDENTICAL labelled fleets and scores each on the axes that
// matter at hyperscale:
//   - precision / recall against injected ground truth (group-based
//     matching, same standard as bench_fpfn_accounting / bench_robustness)
//   - time-to-detect: mean gap between an injected event's start and the
//     detected_at of the first report that matches it
//   - CPU cost: wall time of the detection phase (identical data, identical
//     scan-thread count — only the detector varies)
// over a matrix of regression magnitudes {50%, 5%, 0.5%} x ingest fault
// rates {0, 0.05, 0.10} (FaultInjectorConfig::AllKinds). Each matrix cell
// generates its fleet ONCE and runs both detectors over the same db, so
// scores differ only by detector. Writes BENCH_detectors.json (one "backends"
// entry per detector, named "cusum_em" and "e_divisive"); `--smoke` shrinks
// the world for CI. DESIGN.md §17 records why these are the two detectors.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/check.h"
#include "src/core/pipeline.h"
#include "src/fleet/fault_injector.h"
#include "src/fleet/fleet.h"
#include "src/fleet/scenario.h"

namespace fbdetect {
namespace {

struct NamedDetector {
  ChangePointDetector detector;
  const char* name;
};

constexpr NamedDetector kDetectors[] = {
    {ChangePointDetector::kCusumEm, "cusum_em"},
    {ChangePointDetector::kEDivisive, "e_divisive"},
};

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

struct DetectorScore {
  std::string detector;
  size_t reports = 0;
  size_t true_regressions = 0;
  size_t false_positives = 0;
  size_t injected = 0;
  size_t caught = 0;
  double precision = 0.0;
  double recall = 0.0;
  double mean_ttd_hours = -1.0;  // -1 when nothing was caught.
  double detect_ms = 0.0;
};

struct Cell {
  double magnitude = 0.0;
  double fault_rate = 0.0;
  std::vector<DetectorScore> scores;
};

// One fleet per (magnitude, fault rate); both detectors scan the same db.
Cell RunCell(double magnitude, double fault_rate, bool smoke, uint64_t seed) {
  FleetSimulator fleet;
  ScenarioOptions options;
  options.service_name = "bakeoff";
  options.num_servers = smoke ? 150 : 1500;
  options.num_subroutines = smoke ? 40 : 100;
  options.duration = smoke ? Days(6) : Days(12);
  // Tiny magnitudes need deep sampling to be resolvable at all (Table 4's
  // setup); the same depth is kept across the matrix so only the planted
  // magnitude varies.
  options.samples_per_bucket = smoke ? 2000000 : 4000000;
  options.num_step_regressions = smoke ? 5 : 10;
  options.num_gradual_regressions = 0;
  options.num_cost_shifts = smoke ? 1 : 3;
  options.num_transients = smoke ? 4 : 15;
  options.num_seasonal_shifts = 1;
  options.num_background_commits = smoke ? 30 : 120;
  options.min_regression_magnitude = magnitude;  // Fixed-magnitude band:
  options.max_regression_magnitude = magnitude;  // the cell IS the magnitude.
  options.gcpu_only = true;
  options.seed = seed;  // Same seed across fault rates: identical ground truth.
  const Scenario scenario = GenerateScenario(fleet, options);

  FaultInjector injector(FaultInjectorConfig::AllKinds(fault_rate, seed + 1));
  FleetIngestOptions ingest;
  ingest.threads = 4;
  if (fault_rate > 0.0) {
    ingest.fault_injector = &injector;
  }
  fleet.Run(scenario.begin, scenario.end, ingest);

  Cell cell;
  cell.magnitude = magnitude;
  cell.fault_rate = fault_rate;

  CallGraphCodeInfo code_info(&scenario.service->graph());
  for (const NamedDetector& detector : kDetectors) {
    PipelineOptions pipeline_options;
    pipeline_options.detection.change_point_detector = detector.detector;
    // A threshold below the smallest planted magnitude's gCPU footprint, so
    // the threshold filter never hides detector differences.
    pipeline_options.detection.threshold = 0.00005;
    pipeline_options.detection.windows.historical = smoke ? Days(2) : Days(4);
    pipeline_options.detection.windows.analysis = Hours(4);
    pipeline_options.detection.windows.extended = Hours(2);
    pipeline_options.detection.rerun_interval = Hours(4);
    pipeline_options.scan_threads = 4;
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

    DetectorScore score;
    score.detector = detector.name;
    score.reports = reports.size();
    score.detect_ms = detect_ms;
    for (const Regression& report : reports) {
      bool is_true = false;
      for (const InjectedEvent& event : fleet.ground_truth()) {
        if (event.IsTrueRegression() && event_hit(report, event)) {
          is_true = true;
          break;
        }
      }
      if (is_true) {
        ++score.true_regressions;
      } else {
        ++score.false_positives;
      }
    }
    // Recall + time-to-detect: first matching report per injected event.
    double ttd_sum_hours = 0.0;
    for (const InjectedEvent& event : fleet.ground_truth()) {
      if (!event.IsTrueRegression()) {
        continue;
      }
      ++score.injected;
      TimePoint first_detected = 0;
      bool caught = false;
      for (const RegressionGroup& group : pipeline.groups()) {
        for (const Regression& member : group.members) {
          if (matches_event(member, event) &&
              (!caught || member.detected_at < first_detected)) {
            caught = true;
            first_detected = member.detected_at;
          }
        }
      }
      if (caught) {
        ++score.caught;
        // detected_at can precede event.start only through matching slack;
        // clamp so the mean stays interpretable.
        const double gap = first_detected > event.start
                               ? static_cast<double>(first_detected - event.start)
                               : 0.0;
        ttd_sum_hours += gap / static_cast<double>(Hours(1));
      }
    }
    score.precision = score.reports == 0
                          ? 1.0
                          : static_cast<double>(score.true_regressions) /
                                static_cast<double>(score.reports);
    score.recall = score.injected == 0
                       ? 1.0
                       : static_cast<double>(score.caught) /
                             static_cast<double>(score.injected);
    if (score.caught > 0) {
      score.mean_ttd_hours = ttd_sum_hours / static_cast<double>(score.caught);
    }
    cell.scores.push_back(score);
  }
  return cell;
}

int Main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  PrintHeader(std::string("detector bake-off — detectors on identical labelled fleets") +
              (smoke ? " [smoke]" : ""));

  const std::vector<double> magnitudes = {0.5, 0.05, 0.005};
  const std::vector<double> fault_rates = {0.0, 0.05, 0.10};
  const uint64_t kSeed = 99;

  const std::vector<int> widths = {6, 7, 11, 8, 4, 4, 7, 7, 8, 10};
  PrintRow({"mag", "faults", "detector", "reports", "TR", "FP", "recall", "prec",
            "ttd_h", "detect_ms"},
           widths);
  std::vector<Cell> cells;
  for (const double magnitude : magnitudes) {
    for (const double rate : fault_rates) {
      Cell cell = RunCell(magnitude, rate, smoke, kSeed);
      for (const DetectorScore& s : cell.scores) {
        PrintRow({FormatDouble(magnitude, "%.3f"), FormatDouble(rate, "%.2f"), s.detector,
                  std::to_string(s.reports), std::to_string(s.true_regressions),
                  std::to_string(s.false_positives), FormatPercent(s.recall, 1),
                  FormatPercent(s.precision, 1),
                  s.mean_ttd_hours < 0.0 ? "-" : FormatDouble(s.mean_ttd_hours, "%.1f"),
                  FormatDouble(s.detect_ms, "%.0f")},
                 widths);
      }
      cells.push_back(std::move(cell));
    }
  }

  // Per-detector rollup across the whole matrix.
  std::printf("\nper-detector rollup (unweighted means across %zu cells):\n", cells.size());
  for (const NamedDetector& detector : kDetectors) {
    double precision = 0.0, recall = 0.0, detect_ms = 0.0;
    for (const Cell& cell : cells) {
      for (const DetectorScore& s : cell.scores) {
        if (s.detector == detector.name) {
          precision += s.precision;
          recall += s.recall;
          detect_ms += s.detect_ms;
        }
      }
    }
    const double n = static_cast<double>(cells.size());
    std::printf("  %-11s recall %5.1f%%  precision %5.1f%%  detect %6.0f ms/cell\n",
                detector.name, 100.0 * recall / n, 100.0 * precision / n, detect_ms / n);
  }

  FILE* json = std::fopen("BENCH_detectors.json", "w");
  FBD_CHECK(json != nullptr);
  std::fprintf(json, "{\n");
  WriteHardwareJson(json);
  std::fprintf(json, ",\n");
  std::fprintf(json, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(json, "  \"cells\": [\n");
  for (size_t c = 0; c < cells.size(); ++c) {
    const Cell& cell = cells[c];
    std::fprintf(json, "    {\"magnitude\": %.3f, \"fault_rate\": %.2f, \"backends\": [\n",
                 cell.magnitude, cell.fault_rate);
    for (size_t b = 0; b < cell.scores.size(); ++b) {
      const DetectorScore& s = cell.scores[b];
      std::fprintf(json,
                   "      {\"backend\": \"%s\", \"reports\": %zu, "
                   "\"true_regressions\": %zu, \"false_positives\": %zu, "
                   "\"injected\": %zu, \"caught\": %zu, \"precision\": %.4f, "
                   "\"recall\": %.4f, \"mean_ttd_hours\": %.2f, "
                   "\"detect_ms\": %.1f}%s\n",
                   s.detector.c_str(), s.reports, s.true_regressions, s.false_positives,
                   s.injected, s.caught, s.precision, s.recall, s.mean_ttd_hours,
                   s.detect_ms, b + 1 < cell.scores.size() ? "," : "");
    }
    std::fprintf(json, "    ]}%s\n", c + 1 < cells.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n");
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("\nwrote BENCH_detectors.json\n");
  return 0;
}

}  // namespace
}  // namespace fbdetect

int main(int argc, char** argv) { return fbdetect::Main(argc, argv); }
