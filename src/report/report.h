// Report rendering: production FBDetect files a ticket per regression group
// for developers to investigate. This module renders Regression records as
// human-readable ticket text (with the window's shape inlined as a
// sparkline) and as JSON lines for machine consumption, and formats the
// Table-3-style funnel summary.
#ifndef FBDETECT_SRC_REPORT_REPORT_H_
#define FBDETECT_SRC_REPORT_REPORT_H_

#include <string>

#include "src/core/pipeline.h"
#include "src/core/regression.h"
#include "src/fleet/change_log.h"
#include "src/observe/telemetry.h"

namespace fbdetect {

struct ReportOptions {
  bool include_sparkline = true;
  size_t sparkline_width = 72;
  size_t max_causes = 3;
};

// Multi-line human-readable ticket. `change_log` may be null (suspect
// commits then render by id only).
std::string RenderTicket(const Regression& regression, const ChangeLog* change_log,
                         const ReportOptions& options = {});

// One-line JSON object with the report's machine-readable fields.
std::string ToJsonLine(const Regression& regression);

// The Table-3-shaped funnel summary for both paths.
std::string RenderFunnel(const FunnelStats& short_term, const FunnelStats& long_term,
                         bool long_term_enabled);

// Human-readable summary of everything the pipeline refused to trust:
// totals, then one row per dirty series (worst verdict, per-artifact counts,
// ingest-time drops). `max_rows` caps the per-series listing (0 = no cap);
// a truncation line reports how many rows were omitted.
std::string RenderQuarantine(const QuarantineReport& report, size_t max_rows = 50);

// Human-readable summary of self-observability registries (DESIGN.md §12),
// typically the database's and the pipeline's: the deterministic counters
// first, then runtime counters and histogram means. Empty registries render
// the header only.
std::string RenderTelemetry(TelemetryRegistries registries);

// Escapes a string for embedding in JSON (quotes, backslashes, control
// characters). Exposed for tests.
std::string JsonEscape(const std::string& text);

}  // namespace fbdetect

#endif  // FBDETECT_SRC_REPORT_REPORT_H_
