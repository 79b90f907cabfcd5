#include "src/tsdb/metric_id.h"

namespace fbdetect {

const char* MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kGcpu:
      return "gcpu";
    case MetricKind::kCpu:
      return "cpu";
    case MetricKind::kMemory:
      return "memory";
    case MetricKind::kThroughput:
      return "throughput";
    case MetricKind::kLatency:
      return "latency";
    case MetricKind::kErrorRate:
      return "error_rate";
    case MetricKind::kCoredumpCount:
      return "coredump_count";
    case MetricKind::kEndpointCost:
      return "endpoint_cost";
    case MetricKind::kIoPerDataType:
      return "io_per_data_type";
    case MetricKind::kMaxThroughput:
      return "max_throughput";
    case MetricKind::kPeakDemand:
      return "peak_demand";
    case MetricKind::kApplication:
      return "application";
  }
  return "unknown";
}

std::string MetricId::ToString() const {
  std::string out = service;
  out.push_back('/');
  out += MetricKindName(kind);
  if (!entity.empty()) {
    out.push_back('/');
    out += entity;
  }
  if (!metadata.empty()) {
    out.push_back('@');
    out += metadata;
  }
  return out;
}

size_t InternedMetricIdHash::operator()(const InternedMetricId& id) const {
  // SplitMix64-style finalizer over the packed components; symbols are dense
  // small integers, so raw mixing would cluster shards without it.
  uint64_t h = (static_cast<uint64_t>(id.service) << 32) ^
               (static_cast<uint64_t>(id.entity) << 8) ^
               (static_cast<uint64_t>(id.metadata) << 40) ^
               static_cast<uint64_t>(id.kind);
  h += 0x9e3779b97f4a7c15ull;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return static_cast<size_t>(h ^ (h >> 31));
}

}  // namespace fbdetect
