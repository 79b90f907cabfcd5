// Data-quality gate in front of the detectors (graceful degradation, §6 of
// the repo DESIGN notes). Fleet telemetry is dirty — collector crashes drop
// samples, retransmits duplicate them, counter resets go negative, hosts
// flap in and out, NaN/Inf leak out of broken exporters. FBDetect must
// neither abort on such series nor false-alarm on artifacts that look like
// step changes (a half-dark window reads as a level shift).
//
// The sanitizer classifies each detection window against a small quality
// taxonomy BEFORE the detectors see it. Windows that fail are quarantined:
// the series is skipped for that re-run and accounted in a structured
// QuarantineReport instead of flowing into the funnel. Clean series are
// completely unaffected — the inspection is read-only and the verdict for a
// well-formed window is kOk.
#ifndef FBDETECT_SRC_CORE_SANITIZER_H_
#define FBDETECT_SRC_CORE_SANITIZER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/sim_time.h"
#include "src/tsdb/metric_id.h"
#include "src/tsdb/window.h"

namespace fbdetect {

// Quality taxonomy for one detection window, ordered by severity (worst
// last) so records can keep the max across windows.
enum class QualityVerdict : int {
  kOk = 0,       // Usable; minor artifacts (e.g. constant clock skew) at most.
  kGappy,        // Too many missing samples on the inferred grid.
  kFlapping,     // Series dark at the window edges (host flapping / churn).
  kCorrupt,      // Non-finite values or counter-reset negatives present.
};

const char* QualityVerdictName(QualityVerdict verdict);

// What InspectWindow found in one window. Counts are over the full window
// span (historical + analysis + extended).
struct WindowQuality {
  // False when the window held no points at all — nothing to classify and
  // nothing to record (absent series are not dirty series).
  bool observed = false;
  QualityVerdict verdict = QualityVerdict::kOk;
  uint32_t non_finite = 0;  // NaN or +-Inf values.
  uint32_t negative = 0;    // Negative values of a non-negative metric kind.
  uint32_t missing = 0;     // Absent samples on the inferred time grid.
  bool late_start = false;  // Historical coverage below the floor.
  bool early_end = false;   // Series went dark before the window closed.
  Duration skew = 0;        // Grid-phase offset (per-host clock skew).
  // Inferred sampling interval: the smallest positive gap between adjacent
  // analysis-window timestamps; 0 when fewer than two are present. The
  // pipeline derives the went-away previous-day length from it.
  Duration tick = 0;
};

// One quarantined (or otherwise dirty) series, accumulated across re-runs.
struct QuarantineRecord {
  MetricId metric;
  QualityVerdict worst = QualityVerdict::kOk;
  uint64_t windows_quarantined = 0;
  uint64_t windows_flagged = 0;  // Windows with any artifact, incl. tolerated.
  uint64_t non_finite = 0;
  uint64_t negative = 0;
  uint64_t missing = 0;
  uint64_t flap_windows = 0;
  Duration max_skew = 0;
  uint64_t decode_failures = 0;  // Corrupt sealed storage (SeriesForScan).
  uint64_t exceptions = 0;       // Detector exceptions isolated to the series.
  uint64_t dropped_duplicate = 0;     // Ingest-time rejects (from the TSDB).
  uint64_t dropped_out_of_order = 0;  // Ingest-time rejects (from the TSDB).
  // Identity of the first error isolated to this series: the what() of the
  // first detector/funnel exception (the identity the bare catch sites used
  // to discard; a non-std::exception throw records "unknown exception"), or
  // the Status message of a sealed-chunk decode failure. Empty when clean.
  std::string last_error;

  // Folds another record for the same metric into this one.
  void Merge(const QuarantineRecord& other);
};

// Snapshot of everything the pipeline refused to trust, in canonical
// MetricId order. Built by Pipeline::quarantine_report().
struct QuarantineReport {
  std::vector<QuarantineRecord> records;

  uint64_t total_windows_quarantined() const;
  uint64_t total_decode_failures() const;
  uint64_t total_exceptions() const;
  uint64_t total_dropped_duplicate() const;
  uint64_t total_dropped_out_of_order() const;
};

// Read-only inspection of one extracted window. `kind` decides whether
// negative values count as corruption (all kinds except the free-form
// kApplication are non-negative by definition).
WindowQuality InspectWindow(MetricKind kind, const WindowView& view, const WindowSpec& spec);

// Whether a window with this verdict is withheld from the detectors: every
// verdict but kOk is.
inline bool ShouldQuarantine(QualityVerdict verdict) { return verdict != QualityVerdict::kOk; }

}  // namespace fbdetect

#endif  // FBDETECT_SRC_CORE_SANITIZER_H_
