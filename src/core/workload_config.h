// Detection configuration per workload — Table 1 of the paper.
//
// Each workload row configures: the detection threshold (absolute gCPU delta
// or relative change), the re-run interval, and the historical / analysis /
// extended window durations. Presets for all twelve Table 1 rows are
// provided; users compose their own DetectionConfig for new workloads.
#ifndef FBDETECT_SRC_CORE_WORKLOAD_CONFIG_H_
#define FBDETECT_SRC_CORE_WORKLOAD_CONFIG_H_

#include <string>
#include <vector>

#include "src/common/sim_time.h"
#include "src/tsdb/window.h"

namespace fbdetect {

enum class ThresholdMode {
  kAbsolute,  // Reported delta must exceed the threshold in metric units.
  kRelative,  // Reported delta / baseline must exceed the threshold.
};

// The change-point detector behind the short-term path (DESIGN.md §17).
enum class ChangePointDetector {
  // The paper's iterative CUSUM+EM split with likelihood-ratio validation
  // (§5.2.1).
  kCusumEm,
  // E-divisive means (Hunter's detector): energy-distance split with a
  // fixed-seed permutation test.
  kEDivisive,
};

// What Table 1 varies per workload, plus the two choices a bench or example
// sets (the change-point detector and the long-term path). The fixed §5
// parameters (SAX N and X%, the test level, the went-away, seasonality and
// long-term thresholds) are constants in the stage that reads them.
struct DetectionConfig {
  std::string name = "custom";
  ThresholdMode threshold_mode = ThresholdMode::kAbsolute;
  double threshold = 0.0005;     // E.g. 0.00005 = 0.005% absolute gCPU.
  Duration rerun_interval = Hours(2);
  WindowSpec windows;

  ChangePointDetector change_point_detector = ChangePointDetector::kCusumEm;
  bool enable_long_term = true;  // The long-term path (§5.3).
};

// The twelve Table 1 rows. Thresholds are the paper's values; window
// durations are the paper's. Benches scale these to simulator resolution.
DetectionConfig FrontFaaSLargeConfig();   // 3% abs, 30 min, 10d/3h/—.
DetectionConfig FrontFaaSSmallConfig();   // 0.005% abs, 2h, 10d/4h/6h.
DetectionConfig PythonFaaSLargeConfig();  // 0.5% abs, 1h, 10d/6h/—.
DetectionConfig PythonFaaSSmallConfig();  // 0.03% abs, 4h, 10d/6h/6h.
DetectionConfig TaoFrontFaaSConfig();     // 0.05% abs, 2h, 10d/4h/1d.
DetectionConfig TaoNonFrontFaaSConfig();  // 0.05% abs, 1h, 10d/1d/6h.
DetectionConfig AdServingShortConfig();   // 0.2% abs, 6h, 10d/1d/12h.
DetectionConfig AdServingLongConfig();    // 0.1% abs, 1d, 16d/9d/—.
DetectionConfig InvoicerShortConfig();    // 0.5% abs, 12h, 14d/1d/1d.
DetectionConfig CtSupplyShortConfig();    // 5% rel, 12h, 7d/1d/1d.
DetectionConfig CtSupplyLongConfig();     // 5% rel, 12h, 10d/7d/1d.
DetectionConfig CtDemandConfig();         // 5% rel, 12h, 7d/1d/—.

// All presets, in Table 1 order.
std::vector<DetectionConfig> AllTable1Configs();

}  // namespace fbdetect

#endif  // FBDETECT_SRC_CORE_WORKLOAD_CONFIG_H_
