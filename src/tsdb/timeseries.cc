#include "src/tsdb/timeseries.h"

#include <algorithm>

#include "src/common/check.h"

namespace fbdetect {

TimeSeries::TimeSeries(std::vector<TimePoint> timestamps, std::vector<double> values)
    : timestamps_(std::move(timestamps)), values_(std::move(values)) {
  FBD_CHECK(timestamps_.size() == values_.size());
  FBD_CHECK(std::is_sorted(timestamps_.begin(), timestamps_.end()));
}

void TimeSeries::Append(TimePoint timestamp, double value) {
  FBD_CHECK(TryAppend(timestamp, value));
}

bool TimeSeries::TryAppend(TimePoint timestamp, double value) {
  if (!timestamps_.empty() && timestamp <= timestamps_.back()) {
    return false;
  }
  timestamps_.push_back(timestamp);
  values_.push_back(value);
  return true;
}

void TimeSeries::AppendRun(std::span<const TimePoint> timestamps,
                           std::span<const double> values) {
  FBD_CHECK(timestamps.size() == values.size());
  if (timestamps.empty()) {
    return;
  }
  FBD_DCHECK(timestamps_.empty() || timestamps.front() > timestamps_.back());
#ifndef NDEBUG
  for (size_t i = 1; i < timestamps.size(); ++i) {
    FBD_DCHECK(timestamps[i] > timestamps[i - 1]);
  }
#endif
  timestamps_.insert(timestamps_.end(), timestamps.begin(), timestamps.end());
  values_.insert(values_.end(), values.begin(), values.end());
}

TimePoint TimeSeries::start_time() const { return timestamps_.empty() ? 0 : timestamps_.front(); }

TimePoint TimeSeries::end_time() const { return timestamps_.empty() ? 0 : timestamps_.back(); }

std::pair<size_t, size_t> TimeSeries::SliceIndices(TimePoint begin, TimePoint end) const {
  const auto first = std::lower_bound(timestamps_.begin(), timestamps_.end(), begin);
  const auto last = std::lower_bound(first, timestamps_.end(), end);
  return {static_cast<size_t>(first - timestamps_.begin()),
          static_cast<size_t>(last - timestamps_.begin())};
}

TimeSeries TimeSeries::Slice(TimePoint begin, TimePoint end) const {
  const auto [first, last] = SliceIndices(begin, end);
  TimeSeries out;
  out.timestamps_.assign(timestamps_.begin() + static_cast<long>(first),
                         timestamps_.begin() + static_cast<long>(last));
  out.values_.assign(values_.begin() + static_cast<long>(first),
                     values_.begin() + static_cast<long>(last));
  return out;
}

std::vector<double> TimeSeries::ValuesBetween(TimePoint begin, TimePoint end) const {
  const auto [first, last] = SliceIndices(begin, end);
  return std::vector<double>(values_.begin() + static_cast<long>(first),
                             values_.begin() + static_cast<long>(last));
}

TimeSeries TimeSeries::Resample(Duration bucket_width) const {
  FBD_CHECK(bucket_width > 0);
  TimeSeries out;
  if (empty()) {
    return out;
  }
  size_t i = 0;
  while (i < timestamps_.size()) {
    // Bucket containing timestamps_[i], aligned to the epoch.
    const TimePoint bucket_start = timestamps_[i] / bucket_width * bucket_width;
    const TimePoint bucket_end = bucket_start + bucket_width;
    double sum = 0.0;
    size_t count = 0;
    while (i < timestamps_.size() && timestamps_[i] < bucket_end) {
      sum += values_[i];
      ++count;
      ++i;
    }
    out.Append(bucket_start, sum / static_cast<double>(count));
  }
  return out;
}

void TimeSeries::DropBefore(TimePoint cutoff) {
  const auto first = std::lower_bound(timestamps_.begin(), timestamps_.end(), cutoff);
  const size_t keep_from = static_cast<size_t>(first - timestamps_.begin());
  if (keep_from == 0) {
    return;
  }
  timestamps_.erase(timestamps_.begin(), timestamps_.begin() + static_cast<long>(keep_from));
  values_.erase(values_.begin(), values_.begin() + static_cast<long>(keep_from));
}

void TimeSeries::Clear() {
  timestamps_.clear();
  values_.clear();
}

}  // namespace fbdetect
