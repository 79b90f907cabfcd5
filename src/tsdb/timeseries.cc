#include "src/tsdb/timeseries.h"

#include <algorithm>

#include "src/common/check.h"

namespace fbdetect {

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

std::vector<double> TimeSeries::ValuesBetween(TimePoint begin, TimePoint end) const {
  const auto [first, last] = SliceIndices(begin, end);
  return std::vector<double>(values_.begin() + static_cast<long>(first),
                             values_.begin() + static_cast<long>(last));
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
