// Detection windows (Fig. 4). At every re-run, FBDetect looks at the most
// recent [historical | analysis | extended] split of a series:
//   * historical window — the baseline for comparison;
//   * analysis window — where regressions are reported;
//   * extended window — used to evaluate whether a regression persists
//     (went-away detection); optional (N/A rows in Table 1).
//
// WindowSpec holds durations. ExtractWindowView splits a series into a
// WindowView: zero-copy spans into the series' internal storage, which is
// the only form the scan reads. Spans are invalidated by any mutation of the
// series (WriteBatch::Commit, TimeSeriesDatabase::SealBefore / Expire,
// TimeSeries::Append / DropBefore), so scans must not interleave with
// ingestion. scan_path_test checks the split against a linear-scan oracle
// that shares no code with TimeSeries::SliceIndices.
#ifndef FBDETECT_SRC_TSDB_WINDOW_H_
#define FBDETECT_SRC_TSDB_WINDOW_H_

#include <span>

#include "src/common/sim_time.h"
#include "src/tsdb/timeseries.h"

namespace fbdetect {

struct WindowSpec {
  Duration historical = Days(10);
  Duration analysis = Hours(4);
  Duration extended = 0;  // 0 = no extended window (N/A).

  Duration Total() const { return historical + analysis + extended; }
};

// The three windows as spans into the series' internal storage (see the
// lifetime rules in the file comment). Because the windows are adjacent
// index ranges of one series, `full` and `analysis_plus_extended` are single
// contiguous spans — detectors can scan across window boundaries without
// re-materializing anything.
struct WindowView {
  std::span<const double> historical;
  std::span<const double> analysis;
  std::span<const double> extended;
  std::span<const double> analysis_plus_extended;
  // historical + analysis + extended as one contiguous span.
  std::span<const double> full;
  TimePoint historical_begin = 0;
  TimePoint analysis_begin = 0;
  TimePoint extended_begin = 0;
  TimePoint as_of = 0;
  // Timestamps aligned with analysis_plus_extended (for change-point
  // timestamps in reports).
  std::span<const TimePoint> analysis_timestamps;
};

// Splits `series` at `as_of` (exclusive upper bound) into the three windows:
//   [as_of - total, as_of - analysis - extended) -> historical
//   [as_of - analysis - extended, as_of - extended) -> analysis
//   [as_of - extended, as_of)                     -> extended
// as spans into `series`' storage (no copies). Built on
// TimeSeries::SliceIndices; O(log n) and allocation-free.
WindowView ExtractWindowView(const TimeSeries& series, TimePoint as_of, const WindowSpec& spec);

}  // namespace fbdetect

#endif  // FBDETECT_SRC_TSDB_WINDOW_H_
