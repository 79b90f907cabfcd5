#include "src/service/workload.h"

#include <cstring>

#include "src/service/wire.h"

namespace fbdetect {

SyntheticWorkload::SyntheticWorkload(const std::string& service, int series_count,
                                     int points_per_series, TimePoint start,
                                     Duration step)
    : next_start_(start), step_(step) {
  WireBatch batch;
  batch.series.reserve(static_cast<size_t>(series_count));
  for (int s = 0; s < series_count; ++s) {
    WireSeries series;
    series.id.service = service;
    series.id.kind = MetricKind::kApplication;
    series.id.entity = "synthetic_" + std::to_string(s);
    series.timestamps.assign(static_cast<size_t>(points_per_series), 0);
    series.values.assign(static_cast<size_t>(points_per_series), 0.0);
    batch.series.push_back(std::move(series));
    batch.total_points += static_cast<size_t>(points_per_series);
  }
  points_per_batch_ = static_cast<uint32_t>(batch.total_points);
  EncodeWireBatch(batch, template_);
  // Record where each series' point array landed so NextBody can patch
  // timestamps/values without re-encoding identities.
  size_t at = kWireHeaderBytes;
  slots_.reserve(batch.series.size());
  for (const WireSeries& series : batch.series) {
    at += 1 + 1 + 2 + 2 + 4;  // Series header.
    at += series.id.service.size() + series.id.entity.size() +
          series.id.metadata.size();
    slots_.push_back(SeriesSlot{at, static_cast<uint32_t>(series.timestamps.size())});
    at += series.timestamps.size() * 16;
  }
}

uint32_t SyntheticWorkload::NextBody(std::string& body) {
  body = template_;
  char* base = body.data();
  for (const SeriesSlot& slot : slots_) {
    char* p = base + slot.offset;
    for (uint32_t i = 0; i < slot.count; ++i) {
      const TimePoint ts = next_start_ + static_cast<TimePoint>(i) * step_;
      // Cheap deterministic wiggle so Gorilla sees non-constant values.
      const double value =
          100.0 + static_cast<double>((batch_index_ * 31 + i * 7) % 97) * 0.125;
      std::memcpy(p, &ts, 8);
      std::memcpy(p + 8, &value, 8);
      p += 16;
    }
  }
  next_start_ += static_cast<TimePoint>(slots_.empty() ? 0 : slots_[0].count) * step_;
  ++batch_index_;
  return points_per_batch_;
}

}  // namespace fbdetect
