// Deterministic fault injection for fleet telemetry (chaos harness).
//
// Production monitoring data is dirty in ways the synthetic fleet is not:
// collectors crash and drop samples, buffers retransmit (duplicates) or
// arrive late (out-of-order), counters reset, hosts flap in and out of the
// fleet, exporters emit NaN/Inf, and per-host clocks skew. The FaultInjector
// corrupts a WriteBatch between generation and Commit with exactly these
// faults, so the robustness tests and the chaos CI job can drive the full
// pipeline over realistically dirty data with known ground truth.
//
// Every decision is a pure hash of (seed, metric identity, timestamp) — no
// mutable RNG state — so the injected faults are byte-identical regardless
// of ingest thread count, flush cadence, or the order batches commit in.
// The FaultLedger records every injected fault by series and kind; tests
// reconcile it against the pipeline's QuarantineReport and the database's
// ingest-reject counters.
#ifndef FBDETECT_SRC_FLEET_FAULT_INJECTOR_H_
#define FBDETECT_SRC_FLEET_FAULT_INJECTOR_H_

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "src/common/sim_time.h"
#include "src/tsdb/database.h"
#include "src/tsdb/metric_id.h"

namespace fbdetect {

enum class FaultKind : int {
  kDrop = 0,       // Sample silently dropped (collector crash / packet loss).
  kNan,            // Value replaced with NaN.
  kInf,            // Value replaced with +Inf.
  kDuplicate,      // Point retransmitted with the same timestamp.
  kOutOfOrder,     // Stale point re-sent behind newer data.
  kCounterReset,   // Value negated (counter wrap / agent restart).
  kFlap,           // Host dark for a whole epoch: all samples dropped.
  kClockSkew,      // Constant per-host timestamp offset.
};

inline constexpr size_t kFaultKindCount = 8;

const char* FaultKindName(FaultKind kind);

struct FaultInjectorConfig {
  uint64_t seed = 1;

  // Fraction of series eligible for faults; the rest pass through untouched
  // (the robustness tests' clean control group).
  double series_fraction = 0.3;

  // Per-point probabilities, applied only within selected series.
  double drop_rate = 0.0;
  double nan_rate = 0.0;
  double inf_rate = 0.0;
  double duplicate_rate = 0.0;
  double out_of_order_rate = 0.0;

  // Counter resets: each reset_duration-wide epoch of a selected series goes
  // negative with probability reset_rate.
  double reset_rate = 0.0;
  Duration reset_duration = Hours(1);

  // Host flapping: each flap_epoch-wide epoch of a selected series goes
  // completely dark with probability flap_rate.
  double flap_rate = 0.0;
  Duration flap_epoch = Hours(6);

  // Clock skew: a selected series is additionally skewed with probability
  // skew_fraction; its every timestamp shifts by a constant offset in
  // [1, max_skew] seconds (constant per series, so order is preserved).
  double skew_fraction = 0.0;
  Duration max_skew = Minutes(3);

  // All eight fault kinds at per-point/per-epoch probability `rate`, over
  // the default 30% of series. AllKinds(0.10, seed) is the acceptance
  // configuration: 10% faults of every kind on the dirty subset.
  static FaultInjectorConfig AllKinds(double rate, uint64_t seed);
};

// Thread-safe per-series, per-kind fault counts. Ingest workers record
// concurrently; readers take a consistent snapshot after Run() returns.
class FaultLedger {
 public:
  void Record(const MetricId& metric, FaultKind kind, uint64_t count = 1);

  uint64_t Count(const MetricId& metric, FaultKind kind) const;
  uint64_t TotalByKind(FaultKind kind) const;
  uint64_t total() const;
  // Series with at least one recorded fault, in canonical MetricId order.
  std::vector<MetricId> FaultedSeries() const;

 private:
  mutable std::mutex mutex_;
  std::map<MetricId, std::array<uint64_t, kFaultKindCount>> counts_;
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultInjectorConfig config) : config_(config) {}

  // Corrupts every staged column of `batch` in place (drops, value
  // corruption, skew, appended duplicate/stale retransmits). Called by the
  // fleet simulator immediately before each Commit; safe to call from
  // several ingest workers on their private batches concurrently.
  void Corrupt(WriteBatch& batch);

  // Whether `metric` is in the faultable subset (pure hash; for tests).
  bool SeriesSelected(const MetricId& metric) const;

  const FaultLedger& ledger() const { return ledger_; }
  const FaultInjectorConfig& config() const { return config_; }

 private:
  FaultInjectorConfig config_;
  FaultLedger ledger_;
};

}  // namespace fbdetect

#endif  // FBDETECT_SRC_FLEET_FAULT_INJECTOR_H_
