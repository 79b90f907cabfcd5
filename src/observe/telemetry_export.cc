#include "src/observe/telemetry_export.h"

#include <cctype>
#include <cinttypes>
#include <cstdio>

namespace fbdetect {
namespace {

void AppendU64(std::string& out, uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%" PRIu64, value);
  out += buffer;
}

// JSON string escaping is minimal here: registered names are code constants
// (dotted ASCII identifiers), so quoting suffices; a stray quote or
// backslash is still escaped for safety.
void AppendJsonString(std::string& out, const std::string& text) {
  out += '"';
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  out += '"';
}

std::string PrometheusName(const std::string& name) {
  std::string out = "fbd_";
  for (char c : name) {
    out += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
  }
  return out;
}

}  // namespace

std::string RenderTelemetryJson(TelemetryRegistries registries, bool include_runtime) {
  const std::vector<CounterSnapshot> counters = SnapshotCounters(registries);
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const CounterSnapshot& counter : counters) {
    if (counter.stability != CounterStability::kDeterministic) {
      continue;
    }
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonString(out, counter.name);
    out += ": ";
    AppendU64(out, counter.value);
  }
  out += first ? "}" : "\n  }";
  if (include_runtime) {
    out += ",\n  \"runtime_counters\": {";
    first = true;
    for (const CounterSnapshot& counter : counters) {
      if (counter.stability != CounterStability::kRuntime) {
        continue;
      }
      out += first ? "\n    " : ",\n    ";
      first = false;
      AppendJsonString(out, counter.name);
      out += ": ";
      AppendU64(out, counter.value);
    }
    out += first ? "}" : "\n  }";
    out += ",\n  \"histograms\": [";
    const std::vector<HistogramSnapshot> histograms = SnapshotHistograms(registries);
    for (size_t h = 0; h < histograms.size(); ++h) {
      const HistogramSnapshot& histogram = histograms[h];
      out += h == 0 ? "\n    {" : ",\n    {";
      out += "\"name\": ";
      AppendJsonString(out, histogram.name);
      out += ", \"count\": ";
      AppendU64(out, histogram.count);
      out += ", \"sum\": ";
      AppendU64(out, histogram.sum);
      // Sparse buckets: only non-empty ones, as [upper_bound, count] pairs.
      out += ", \"buckets\": [";
      bool first_bucket = true;
      for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
        if (histogram.buckets[i] == 0) {
          continue;
        }
        if (!first_bucket) {
          out += ", ";
        }
        first_bucket = false;
        out += '[';
        AppendU64(out, Histogram::BucketUpperBound(i));
        out += ", ";
        AppendU64(out, histogram.buckets[i]);
        out += ']';
      }
      out += "]}";
    }
    out += histograms.empty() ? "]" : "\n  ]";
  }
  out += "\n}\n";
  return out;
}

std::string RenderTelemetryPrometheus(TelemetryRegistries registries) {
  std::string out;
  for (const CounterSnapshot& counter : SnapshotCounters(registries)) {
    const std::string name = PrometheusName(counter.name);
    out += "# TYPE " + name + " counter\n";
    out += name + " ";
    AppendU64(out, counter.value);
    out += '\n';
  }
  for (const HistogramSnapshot& histogram : SnapshotHistograms(registries)) {
    const std::string name = PrometheusName(histogram.name);
    out += "# TYPE " + name + " histogram\n";
    uint64_t cumulative = 0;
    for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      if (histogram.buckets[i] == 0) {
        continue;
      }
      cumulative += histogram.buckets[i];
      out += name + "_bucket{le=\"";
      AppendU64(out, Histogram::BucketUpperBound(i));
      out += "\"} ";
      AppendU64(out, cumulative);
      out += '\n';
    }
    out += name + "_bucket{le=\"+Inf\"} ";
    AppendU64(out, histogram.count);
    out += '\n';
    out += name + "_sum ";
    AppendU64(out, histogram.sum);
    out += '\n';
    out += name + "_count ";
    AppendU64(out, histogram.count);
    out += '\n';
  }
  return out;
}

bool WriteTelemetryFile(TelemetryRegistries registries, const std::string& path) {
  FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  const std::string json = RenderTelemetryJson(registries, /*include_runtime=*/true);
  const bool ok = std::fwrite(json.data(), 1, json.size(), file) == json.size();
  return std::fclose(file) == 0 && ok;
}

}  // namespace fbdetect
