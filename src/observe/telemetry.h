// Self-observability substrate (DESIGN.md §12).
//
// FBDetect's value proposition is funnel attrition (§5 / Fig. 6 of the
// paper): raw change points are cut by 3-4 orders of magnitude before a
// ticket is filed. This module makes that attrition — and the cost of
// producing it — observable from inside the process: monotonic counters for
// per-stage candidate-in/out counts, log-bucketed histograms for stage
// latencies, and RAII StageTimers recording wall and per-thread CPU time.
//
// Each event is counted once, by the component that sees it: the database
// owns a registry for its tsdb.* instruments, the pipeline one for its
// pipeline.* instruments (the service adds service.* there), and exports
// render several registries as one document.
//
// Design constraints (all load-bearing for the pipeline):
//  * Determinism. Counters tagged kDeterministic count EVENTS (a series
//    scanned, a candidate surviving a stage), never scheduling artifacts, so
//    their values are byte-identical for any scan_threads. Counters tagged
//    kRuntime (commit batching, byte totals) and all histograms are
//    excluded from the deterministic export.
//  * Allocation-light hot path. Handles (Counter*/Histogram*) are registered
//    once up front; recording is a relaxed atomic add with zero allocation
//    and zero locking. Registration itself is lock-striped by name hash so
//    concurrent registries of independent subsystems never contend.
//  * Clocks only on request. Counters always count; StageTimer reads no
//    clock when handed null histograms, which is how callers switch stage
//    timing off.
#ifndef FBDETECT_SRC_OBSERVE_TELEMETRY_H_
#define FBDETECT_SRC_OBSERVE_TELEMETRY_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace fbdetect {

// Whether a counter's value is a pure function of the input data (and thus
// byte-identical across scan_threads) or depends on scheduling/timing.
enum class CounterStability { kDeterministic, kRuntime };

// A monotonic event counter. Add is wait-free (relaxed fetch_add). Set is
// for totals the owning component derives itself (e.g. the database's
// per-file WAL byte counts); nothing else may Set another component's value.
class Counter {
 public:
  void Add(uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  void Set(uint64_t v) { value_.store(v, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Fixed log-spaced (power-of-two) buckets: bucket i counts values whose
// bit-width is i, i.e. [2^(i-1), 2^i) for i >= 1 and {0} for i = 0. 44
// buckets cover [0, ~8.8e12] — nanosecond timings up to ~2.4 hours — with
// the last bucket absorbing anything larger. No configuration, no
// allocation, no locking: Record is three relaxed atomic adds.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 44;

  void Record(uint64_t value) {
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t bucket(size_t i) const { return buckets_[i].load(std::memory_order_relaxed); }

  // Inclusive upper bound of bucket i (2^i - 1); UINT64_MAX for the last.
  static uint64_t BucketUpperBound(size_t i);
  static size_t BucketIndex(uint64_t value);

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

// Snapshots for export; sorted by name so every render is deterministic.
struct CounterSnapshot {
  std::string name;
  uint64_t value = 0;
  CounterStability stability = CounterStability::kDeterministic;
};

struct HistogramSnapshot {
  std::string name;
  uint64_t count = 0;
  uint64_t sum = 0;
  std::array<uint64_t, Histogram::kNumBuckets> buckets{};
};

// Named counter/histogram registry. Lookup-or-create is lock-striped by name
// hash (shared lock on the hit path, exclusive only to insert); handles are
// stable for the registry's lifetime (instruments live in per-stripe deques
// that never relocate).
class TelemetryRegistry {
 public:
  TelemetryRegistry() = default;
  TelemetryRegistry(const TelemetryRegistry&) = delete;
  TelemetryRegistry& operator=(const TelemetryRegistry&) = delete;

  // Returns the instrument registered under `name`, creating it on first
  // use. The stability tag is fixed by the first registration.
  Counter* GetCounter(std::string_view name,
                      CounterStability stability = CounterStability::kDeterministic);
  Histogram* GetHistogram(std::string_view name);

  // Name-sorted snapshots (deterministic iteration order for export).
  std::vector<CounterSnapshot> SnapshotCounters() const;
  std::vector<HistogramSnapshot> SnapshotHistograms() const;

  size_t counter_count() const;
  size_t histogram_count() const;

 private:
  static constexpr size_t kNumStripes = 16;

  struct NamedCounter {
    std::string name;
    CounterStability stability = CounterStability::kDeterministic;
    Counter counter;
  };
  struct NamedHistogram {
    std::string name;
    Histogram histogram;
  };
  struct Stripe {
    mutable std::shared_mutex mutex;
    std::deque<NamedCounter> counters;          // Deque: stable addresses.
    std::deque<NamedHistogram> histograms;
    std::unordered_map<std::string_view, Counter*> counter_index;
    std::unordered_map<std::string_view, Histogram*> histogram_index;
  };

  Stripe& StripeFor(std::string_view name);

  std::array<Stripe, kNumStripes> stripes_;
};

// The registries one export renders as a single document, e.g. a database's
// and its pipeline's. Instrument names must not repeat across them.
using TelemetryRegistries = std::initializer_list<const TelemetryRegistry*>;

// Name-sorted snapshots across several registries.
std::vector<CounterSnapshot> SnapshotCounters(TelemetryRegistries registries);
std::vector<HistogramSnapshot> SnapshotHistograms(TelemetryRegistries registries);

// RAII stage timer: records elapsed wall time (and, where the platform
// supports per-thread CPU clocks, CPU time) in nanoseconds into the given
// histograms on destruction. Null histograms make construction and
// destruction free of clock reads — the enabled check is "pass nullptr".
class StageTimer {
 public:
  explicit StageTimer(Histogram* wall_ns, Histogram* cpu_ns = nullptr);
  ~StageTimer();

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  // Current thread's monotonic wall clock, nanoseconds.
  static uint64_t WallNowNanos();
  // Current thread's CPU clock, nanoseconds; 0 where unsupported.
  static uint64_t ThreadCpuNowNanos();

 private:
  Histogram* wall_ns_;
  Histogram* cpu_ns_;
  uint64_t start_wall_ = 0;
  uint64_t start_cpu_ = 0;
};

}  // namespace fbdetect

#endif  // FBDETECT_SRC_OBSERVE_TELEMETRY_H_
