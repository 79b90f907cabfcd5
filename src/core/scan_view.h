// The zero-copy scan path's working view (§5.1).
//
// Detection stages 1–3 + threshold and the long-term detector all consume
// the same windows of one series in regression-positive orientation
// (increase = worse). ScanView packages those windows as ONE contiguous
// oriented span plus offsets, so:
//   * for metrics where higher is worse the spans alias the TSDB storage
//     directly (zero copies);
//   * for throughput-like metrics (LowerIsRegression) the values are negated
//     ONCE into a caller-provided scratch buffer shared by all stages,
//     instead of once per stage;
//   * window data is copied into a Regression only when a candidate survives
//     every per-series filter (ScanCandidate -> MaterializeRegression).
// Each scan stage has one entry, over this view. Pipeline::ScanMetric is
// the one caller that chains them; Pipeline::ScanSeries runs that chain for
// one series and returns each stage's verdict.
//
// Lifetime: a ScanView borrows either the TSDB series storage or the scratch
// buffer. It is invalidated by any TimeSeriesDatabase mutation and by reuse
// of the scratch buffer — scans must not interleave with ingestion.
#ifndef FBDETECT_SRC_CORE_SCAN_VIEW_H_
#define FBDETECT_SRC_CORE_SCAN_VIEW_H_

#include <span>
#include <vector>

#include "src/common/sim_time.h"
#include "src/core/regression.h"
#include "src/tsdb/window.h"

namespace fbdetect {

struct ScanView {
  // historical | analysis | extended, contiguous, oriented.
  std::span<const double> full;
  size_t historical_size = 0;
  size_t analysis_size = 0;
  size_t extended_size = 0;
  // Timestamps aligned with analysis_plus_extended().
  std::span<const TimePoint> analysis_timestamps;
  TimePoint analysis_begin = 0;
  TimePoint as_of = 0;

  std::span<const double> historical() const { return full.subspan(0, historical_size); }
  std::span<const double> analysis() const {
    return full.subspan(historical_size, analysis_size);
  }
  std::span<const double> extended() const {
    return full.subspan(historical_size + analysis_size, extended_size);
  }
  std::span<const double> analysis_plus_extended() const {
    return full.subspan(historical_size);
  }
};

// A short-term candidate emitted by the change-point stage. The window data
// stays behind the ScanView's spans; only scalars travel through the
// went-away / seasonality / threshold filters, and a Regression is
// materialized for survivors alone.
struct ScanCandidate {
  size_t change_index = 0;  // Within analysis_plus_extended().
  double p_value = 1.0;
  double baseline_mean = 0.0;
  double regressed_mean = 0.0;
  double delta = 0.0;
  double relative_delta = 0.0;
};

// Builds an oriented view over `view`'s series storage. sign == +1 aliases
// the storage directly (zero copy); sign == -1 negates into `scratch`.
ScanView OrientWindows(const WindowView& view, double sign, std::vector<double>& scratch);

// Copies a SURVIVING candidate's window data out of `view` into a full
// Regression record for the downstream dedup / root-cause stages.
Regression MaterializeRegression(const MetricId& metric, const ScanView& view,
                                 const ScanCandidate& candidate);

}  // namespace fbdetect

#endif  // FBDETECT_SRC_CORE_SCAN_VIEW_H_
