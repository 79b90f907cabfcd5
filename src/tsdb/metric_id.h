// Metric identity. FBDetect monitors ~800k time series across hundreds of
// services; each series is identified by (service, metric kind, entity,
// optional metadata). "Entity" is the subroutine name for gCPU metrics, the
// endpoint URL for endpoint metrics, the data type for per-data-type I/O, or
// empty for service-level metrics.
#ifndef FBDETECT_SRC_TSDB_METRIC_ID_H_
#define FBDETECT_SRC_TSDB_METRIC_ID_H_

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

namespace fbdetect {

enum class MetricKind : int {
  kGcpu = 0,         // Relative subroutine CPU from stack-trace samples.
  kCpu,              // Process-level CPU usage.
  kMemory,
  kThroughput,
  kLatency,
  kErrorRate,
  kCoredumpCount,
  kEndpointCost,     // End-to-end aggregated endpoint cost (§3, FrontFaaS).
  kIoPerDataType,    // Per-data-type I/O to a downstream database (§3, TAO).
  kMaxThroughput,    // CT-supply: per-server maximum throughput from load tests.
  kPeakDemand,       // CT-demand: total peak requests across all servers.
  kApplication,      // Free-form application-level metric.
};

// Human-readable kind name ("gcpu", "throughput", ...).
const char* MetricKindName(MetricKind kind);

struct MetricId {
  std::string service;
  MetricKind kind = MetricKind::kCpu;
  std::string entity;    // Subroutine / endpoint / data type; may be empty.
  std::string metadata;  // SetFrameMetadata annotation; may be empty.

  // Allocation-free total order over (service, kind, entity, metadata) —
  // the canonical metric order used by ListMetrics and the pipeline's
  // deterministic survivor merge. (Sorting by ToString() would allocate two
  // strings per comparison.)
  auto operator<=>(const MetricId& other) const = default;
  bool operator==(const MetricId& other) const = default;

  // Canonical string form "service/kind/entity[@metadata]" — this is the
  // "metric ID" whose n-gram similarity SOMDedup and PairwiseDedup use.
  std::string ToString() const;
};

// The interned form of a MetricId: each string component replaced by its
// dense SymbolTable handle. This is the key of the sharded storage and the
// currency of the hot write path — hashing it mixes three 32-bit integers
// instead of three heap strings. Symbols are only meaningful relative to the
// SymbolTable (in practice: the TimeSeriesDatabase) that produced them.
struct InternedMetricId {
  uint32_t service = 0;
  MetricKind kind = MetricKind::kCpu;
  uint32_t entity = 0;
  uint32_t metadata = 0;

  bool operator==(const InternedMetricId& other) const = default;
};

struct InternedMetricIdHash {
  size_t operator()(const InternedMetricId& id) const;
};

}  // namespace fbdetect

#endif  // FBDETECT_SRC_TSDB_METRIC_ID_H_
