#include "src/fleet/fault_injector.h"

#include <cmath>
#include <limits>
#include <string_view>
#include <utility>

#include "src/common/check.h"

namespace fbdetect {
namespace {

// FNV-1a over the metric identity strings; stable across processes and
// independent of symbol-table interning order.
uint64_t HashString(uint64_t h, std::string_view s) {
  for (const char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// splitmix64 finalizer: turns structured inputs into well-mixed bits.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Uniform in [0, 1) from 53 mixed bits.
double UnitRoll(uint64_t h) {
  return static_cast<double>(Mix(h) >> 11) * 0x1.0p-53;
}

// Per-decision salts keep the rolls for different fault kinds independent.
enum Salt : uint64_t {
  kSaltSelect = 0x5e1ec7ull,
  kSaltSkewRoll = 0x5ce31ull,
  kSaltSkewAmount = 0x5ce32ull,
  kSaltDrop = 0xd301ull,
  kSaltNan = 0x4a41ull,
  kSaltInf = 0x1f41ull,
  kSaltDuplicate = 0xd0b1ull,
  kSaltOutOfOrder = 0x0301ull,
  kSaltReset = 0x4e5e7ull,
  kSaltFlap = 0xf1a9ull,
};

uint64_t SeriesHash(uint64_t seed, const MetricId& id) {
  uint64_t h = HashString(0xcbf29ce484222325ull ^ seed, id.service);
  h = Mix(h ^ static_cast<uint64_t>(id.kind));
  h = HashString(h, id.entity);
  h = HashString(h, id.metadata);
  return h;
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDrop:
      return "drop";
    case FaultKind::kNan:
      return "nan";
    case FaultKind::kInf:
      return "inf";
    case FaultKind::kDuplicate:
      return "duplicate";
    case FaultKind::kOutOfOrder:
      return "out_of_order";
    case FaultKind::kCounterReset:
      return "counter_reset";
    case FaultKind::kFlap:
      return "flap";
    case FaultKind::kClockSkew:
      return "clock_skew";
  }
  return "unknown";
}

FaultInjectorConfig FaultInjectorConfig::AllKinds(double rate, uint64_t seed) {
  FaultInjectorConfig config;
  config.seed = seed;
  config.drop_rate = rate;
  config.nan_rate = rate;
  config.inf_rate = rate;
  config.duplicate_rate = rate;
  config.out_of_order_rate = rate;
  config.reset_rate = rate;
  config.flap_rate = rate;
  config.skew_fraction = rate;
  return config;
}

void FaultLedger::Record(const MetricId& metric, FaultKind kind, uint64_t count) {
  if (count == 0) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = counts_.try_emplace(metric);
  if (inserted) {
    it->second.fill(0);
  }
  it->second[static_cast<size_t>(kind)] += count;
}

uint64_t FaultLedger::Count(const MetricId& metric, FaultKind kind) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counts_.find(metric);
  if (it == counts_.end()) {
    return 0;
  }
  return it->second[static_cast<size_t>(kind)];
}

uint64_t FaultLedger::TotalByKind(FaultKind kind) const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t total = 0;
  for (const auto& [metric, counts] : counts_) {
    total += counts[static_cast<size_t>(kind)];
  }
  return total;
}

uint64_t FaultLedger::total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t total = 0;
  for (const auto& [metric, counts] : counts_) {
    for (const uint64_t count : counts) {
      total += count;
    }
  }
  return total;
}

std::vector<MetricId> FaultLedger::FaultedSeries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<MetricId> series;
  series.reserve(counts_.size());
  for (const auto& [metric, counts] : counts_) {
    series.push_back(metric);  // std::map iterates in canonical order.
  }
  return series;
}

bool FaultInjector::SeriesSelected(const MetricId& metric) const {
  const uint64_t h = SeriesHash(config_.seed, metric);
  return UnitRoll(h ^ kSaltSelect) < config_.series_fraction;
}

void FaultInjector::Corrupt(WriteBatch& batch) {
  const TimeSeriesDatabase* db = batch.db();
  FBD_CHECK(db != nullptr);
  std::vector<TimePoint> out_timestamps;
  std::vector<double> out_values;
  batch.MutateColumns([&](const InternedMetricId& interned,
                          std::vector<TimePoint>& timestamps,
                          std::vector<double>& values) {
    if (timestamps.empty()) {
      return;
    }
    const MetricId metric = db->Resolve(interned);
    const uint64_t series = SeriesHash(config_.seed, metric);
    if (UnitRoll(series ^ kSaltSelect) >= config_.series_fraction) {
      return;  // Clean control group: untouched.
    }

    // Constant per-series skew, decided once per series.
    Duration skew = 0;
    if (config_.skew_fraction > 0 &&
        UnitRoll(series ^ kSaltSkewRoll) < config_.skew_fraction) {
      const uint64_t span = static_cast<uint64_t>(std::max<Duration>(1, config_.max_skew));
      skew = static_cast<Duration>(Mix(series ^ kSaltSkewAmount) % span) + 1;
    }

    out_timestamps.clear();
    out_values.clear();
    out_timestamps.reserve(timestamps.size() + timestamps.size() / 4);
    out_values.reserve(values.size() + values.size() / 4);

    for (size_t i = 0; i < timestamps.size(); ++i) {
      const TimePoint t = timestamps[i];
      const uint64_t point = Mix(series ^ static_cast<uint64_t>(t));

      // Host flapping: whole epochs go dark.
      if (config_.flap_rate > 0) {
        const uint64_t epoch = static_cast<uint64_t>(t / std::max<Duration>(1, config_.flap_epoch));
        if (UnitRoll(Mix(series ^ epoch) ^ kSaltFlap) < config_.flap_rate) {
          ledger_.Record(metric, FaultKind::kFlap);
          continue;
        }
      }
      // Independent sample drops.
      if (config_.drop_rate > 0 && UnitRoll(point ^ kSaltDrop) < config_.drop_rate) {
        ledger_.Record(metric, FaultKind::kDrop);
        continue;
      }

      // Value corruption.
      double value = values[i];
      const uint64_t reset_epoch =
          static_cast<uint64_t>(t / std::max<Duration>(1, config_.reset_duration));
      if (config_.reset_rate > 0 &&
          UnitRoll(Mix(series ^ reset_epoch) ^ kSaltReset) < config_.reset_rate) {
        // Counter wrap / agent restart: the non-negative metric goes negative
        // for the whole reset epoch.
        value = -std::fabs(value) - 1.0;
        ledger_.Record(metric, FaultKind::kCounterReset);
      } else if (config_.nan_rate > 0 && UnitRoll(point ^ kSaltNan) < config_.nan_rate) {
        value = std::numeric_limits<double>::quiet_NaN();
        ledger_.Record(metric, FaultKind::kNan);
      } else if (config_.inf_rate > 0 && UnitRoll(point ^ kSaltInf) < config_.inf_rate) {
        value = std::numeric_limits<double>::infinity();
        ledger_.Record(metric, FaultKind::kInf);
      }

      TimePoint out_t = t;
      if (skew != 0) {
        out_t += skew;  // Constant offset: strictly-increasing order survives.
        ledger_.Record(metric, FaultKind::kClockSkew);
      }
      out_timestamps.push_back(out_t);
      out_values.push_back(value);

      // Retransmit faults ride behind the point they duplicate, so the
      // database provably rejects them (same or older than the newest stored
      // point) and ledger counts reconcile exactly with ingest rejects.
      if (config_.duplicate_rate > 0 &&
          UnitRoll(point ^ kSaltDuplicate) < config_.duplicate_rate) {
        out_timestamps.push_back(out_t);
        out_values.push_back(value);
        ledger_.Record(metric, FaultKind::kDuplicate);
      }
      if (config_.out_of_order_rate > 0 &&
          UnitRoll(point ^ kSaltOutOfOrder) < config_.out_of_order_rate) {
        out_timestamps.push_back(out_t - 1);
        out_values.push_back(value);
        ledger_.Record(metric, FaultKind::kOutOfOrder);
      }
    }
    timestamps.swap(out_timestamps);
    values.swap(out_values);
  });
}

}  // namespace fbdetect
