// Export formats for TelemetryRegistry snapshots.
//
// Every export takes the registries to render — typically the database's
// (tsdb.*) and the pipeline's (pipeline.*, service.*) — and merges them into
// one name-sorted document. Two renderers over the same snapshot:
//  * JSON — deterministic by construction (sorted names, integer values,
//    fixed field order). With include_runtime = false only kDeterministic
//    counters are emitted, which is the form the observability tests
//    byte-compare across scan_threads values.
//  * Prometheus text exposition — counters as `fbd_<name> <value>` and
//    histograms as the conventional `_bucket{le=...}/_sum/_count` triplet,
//    for scraping by a standard collector.
#ifndef FBDETECT_SRC_OBSERVE_TELEMETRY_EXPORT_H_
#define FBDETECT_SRC_OBSERVE_TELEMETRY_EXPORT_H_

#include <string>

#include "src/observe/telemetry.h"

namespace fbdetect {

// Deterministic JSON object: {"counters": {...}, "runtime_counters": {...},
// "histograms": [...]}. The last two sections appear only when
// include_runtime is true; the "counters" section alone is byte-identical
// across scan_threads for a deterministic pipeline.
std::string RenderTelemetryJson(TelemetryRegistries registries, bool include_runtime);

// Prometheus text exposition format (everything, timings included). Metric
// names are prefixed with `fbd_` and non-alphanumeric characters in
// registered names map to '_'.
std::string RenderTelemetryPrometheus(TelemetryRegistries registries);

// Writes RenderTelemetryJson(registries, /*include_runtime=*/true) to `path`.
// Returns false (and writes nothing) when the file cannot be opened. Backs
// the --telemetry-out flag on the benches, examples, and tools.
bool WriteTelemetryFile(TelemetryRegistries registries, const std::string& path);

}  // namespace fbdetect

#endif  // FBDETECT_SRC_OBSERVE_TELEMETRY_EXPORT_H_
