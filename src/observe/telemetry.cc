#include "src/observe/telemetry.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <functional>
#include <iterator>
#include <mutex>

#if defined(__unix__) || defined(__APPLE__)
#include <time.h>
#include <unistd.h>
#endif

namespace fbdetect {

size_t Histogram::BucketIndex(uint64_t value) {
  const size_t width = static_cast<size_t>(std::bit_width(value));
  return width < kNumBuckets ? width : kNumBuckets - 1;
}

uint64_t Histogram::BucketUpperBound(size_t i) {
  if (i + 1 >= kNumBuckets) {
    return UINT64_MAX;
  }
  return (uint64_t{1} << i) - 1;
}

TelemetryRegistry::Stripe& TelemetryRegistry::StripeFor(std::string_view name) {
  return stripes_[std::hash<std::string_view>{}(name) % kNumStripes];
}

Counter* TelemetryRegistry::GetCounter(std::string_view name, CounterStability stability) {
  Stripe& stripe = StripeFor(name);
  {
    std::shared_lock lock(stripe.mutex);
    auto it = stripe.counter_index.find(name);
    if (it != stripe.counter_index.end()) {
      return it->second;
    }
  }
  std::unique_lock lock(stripe.mutex);
  auto it = stripe.counter_index.find(name);
  if (it != stripe.counter_index.end()) {
    return it->second;
  }
  NamedCounter& named = stripe.counters.emplace_back();
  named.name = std::string(name);
  named.stability = stability;
  stripe.counter_index.emplace(std::string_view(named.name), &named.counter);
  return &named.counter;
}

Histogram* TelemetryRegistry::GetHistogram(std::string_view name) {
  Stripe& stripe = StripeFor(name);
  {
    std::shared_lock lock(stripe.mutex);
    auto it = stripe.histogram_index.find(name);
    if (it != stripe.histogram_index.end()) {
      return it->second;
    }
  }
  std::unique_lock lock(stripe.mutex);
  auto it = stripe.histogram_index.find(name);
  if (it != stripe.histogram_index.end()) {
    return it->second;
  }
  stripe.histograms.emplace_back();
  NamedHistogram& named = stripe.histograms.back();
  named.name = std::string(name);
  stripe.histogram_index.emplace(std::string_view(named.name), &named.histogram);
  return &named.histogram;
}

std::vector<CounterSnapshot> TelemetryRegistry::SnapshotCounters() const {
  std::vector<CounterSnapshot> out;
  for (const Stripe& stripe : stripes_) {
    std::shared_lock lock(stripe.mutex);
    for (const NamedCounter& named : stripe.counters) {
      out.push_back(CounterSnapshot{named.name, named.counter.value(), named.stability});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const CounterSnapshot& a, const CounterSnapshot& b) { return a.name < b.name; });
  return out;
}

std::vector<HistogramSnapshot> TelemetryRegistry::SnapshotHistograms() const {
  std::vector<HistogramSnapshot> out;
  for (const Stripe& stripe : stripes_) {
    std::shared_lock lock(stripe.mutex);
    for (const NamedHistogram& named : stripe.histograms) {
      HistogramSnapshot snapshot;
      snapshot.name = named.name;
      snapshot.count = named.histogram.count();
      snapshot.sum = named.histogram.sum();
      for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
        snapshot.buckets[i] = named.histogram.bucket(i);
      }
      out.push_back(std::move(snapshot));
    }
  }
  std::sort(out.begin(), out.end(), [](const HistogramSnapshot& a, const HistogramSnapshot& b) {
    return a.name < b.name;
  });
  return out;
}

std::vector<CounterSnapshot> SnapshotCounters(TelemetryRegistries registries) {
  std::vector<CounterSnapshot> out;
  for (const TelemetryRegistry* registry : registries) {
    std::vector<CounterSnapshot> part = registry->SnapshotCounters();
    out.insert(out.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  std::sort(out.begin(), out.end(),
            [](const CounterSnapshot& a, const CounterSnapshot& b) { return a.name < b.name; });
  return out;
}

std::vector<HistogramSnapshot> SnapshotHistograms(TelemetryRegistries registries) {
  std::vector<HistogramSnapshot> out;
  for (const TelemetryRegistry* registry : registries) {
    std::vector<HistogramSnapshot> part = registry->SnapshotHistograms();
    out.insert(out.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  std::sort(out.begin(), out.end(), [](const HistogramSnapshot& a, const HistogramSnapshot& b) {
    return a.name < b.name;
  });
  return out;
}

size_t TelemetryRegistry::counter_count() const {
  size_t total = 0;
  for (const Stripe& stripe : stripes_) {
    std::shared_lock lock(stripe.mutex);
    total += stripe.counters.size();
  }
  return total;
}

size_t TelemetryRegistry::histogram_count() const {
  size_t total = 0;
  for (const Stripe& stripe : stripes_) {
    std::shared_lock lock(stripe.mutex);
    total += stripe.histograms.size();
  }
  return total;
}

uint64_t StageTimer::WallNowNanos() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

uint64_t StageTimer::ThreadCpuNowNanos() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  struct timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<uint64_t>(ts.tv_nsec);
  }
#endif
  return 0;
}

StageTimer::StageTimer(Histogram* wall_ns, Histogram* cpu_ns)
    : wall_ns_(wall_ns), cpu_ns_(cpu_ns) {
  if (wall_ns_ != nullptr) {
    start_wall_ = WallNowNanos();
  }
  if (cpu_ns_ != nullptr) {
    start_cpu_ = ThreadCpuNowNanos();
  }
}

StageTimer::~StageTimer() {
  if (wall_ns_ != nullptr) {
    wall_ns_->Record(WallNowNanos() - start_wall_);
  }
  if (cpu_ns_ != nullptr) {
    const uint64_t now = ThreadCpuNowNanos();
    cpu_ns_->Record(now >= start_cpu_ ? now - start_cpu_ : 0);
  }
}

}  // namespace fbdetect
