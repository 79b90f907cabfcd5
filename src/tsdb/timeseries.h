// A time series: timestamps (ascending) plus values. Supports appends,
// time-range lookups and retention. Values are stored densely; series
// produced by the fleet simulator are regularly spaced, but the API does not
// require it.
#ifndef FBDETECT_SRC_TSDB_TIMESERIES_H_
#define FBDETECT_SRC_TSDB_TIMESERIES_H_

#include <span>
#include <vector>

#include "src/common/sim_time.h"

namespace fbdetect {

class TimeSeries {
 public:
  TimeSeries() = default;

  // Appends a point; `timestamp` must be strictly after the last one.
  void Append(TimePoint timestamp, double value);

  // Recoverable form for dirty telemetry: appends and returns true when
  // `timestamp` is strictly after the last stored point, returns false (and
  // stores nothing) otherwise. Ingest paths use this to drop out-of-order or
  // duplicate points instead of aborting.
  bool TryAppend(TimePoint timestamp, double value);

  // Bulk append of a run the CALLER has already validated: `timestamps` must
  // be strictly increasing and start strictly after end_time(). The batch
  // decode path (Gorilla chunks, tiered tails) uses this to replace
  // per-point bounds checks with one boundary check plus two memcpy-class
  // inserts. Validated with FBD_DCHECK only — hot path.
  void AppendRun(std::span<const TimePoint> timestamps, std::span<const double> values);

  size_t size() const { return timestamps_.size(); }
  bool empty() const { return timestamps_.empty(); }

  const std::vector<TimePoint>& timestamps() const { return timestamps_; }
  const std::vector<double>& values() const { return values_; }
  std::span<const double> value_span() const { return values_; }

  TimePoint start_time() const;  // 0 if empty.
  TimePoint end_time() const;    // 0 if empty.

  // Values with begin <= t < end (copy; spans into internal storage are
  // available via SliceIndices for zero-copy paths).
  std::vector<double> ValuesBetween(TimePoint begin, TimePoint end) const;

  // Index range [first, last) of points with begin <= t < end.
  std::pair<size_t, size_t> SliceIndices(TimePoint begin, TimePoint end) const;

  // Drops all points strictly older than `cutoff` (retention).
  void DropBefore(TimePoint cutoff);

  // Removes all points; keeps capacity (scratch-buffer reuse on the tiered
  // scan path).
  void Clear();

 private:
  std::vector<TimePoint> timestamps_;
  std::vector<double> values_;
};

}  // namespace fbdetect

#endif  // FBDETECT_SRC_TSDB_TIMESERIES_H_
