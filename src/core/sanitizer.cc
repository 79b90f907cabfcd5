#include "src/core/sanitizer.h"

#include <algorithm>
#include <cmath>

namespace fbdetect {
namespace {

// A window is kGappy when missing > kMaxGapFraction * expected samples.
constexpr double kMaxGapFraction = 0.25;
// A window is kFlapping when the historical window holds less than this
// fraction of its expected samples (series appeared late / was dark), or
// when the series goes dark before the analysis window ends.
constexpr double kMinHistoricalCoverage = 0.5;

// Counts values that are not finite, and values that are finite and
// strictly negative (-0.0 is not negative).
void ClassifyValues(const double* values, size_t n, uint64_t* non_finite,
                    uint64_t* negative) {
  uint64_t nf = 0;
  uint64_t neg = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!std::isfinite(values[i])) {
      ++nf;
    } else if (values[i] < 0.0) {
      ++neg;
    }
  }
  *non_finite = nf;
  *negative = neg;
}

// Smallest strictly positive gap timestamps[i] - timestamps[i-1], or 0 when
// none exists (n < 2 or no positive gap).
int64_t MinPositiveGap(const int64_t* timestamps, size_t n) {
  int64_t dt = 0;
  for (size_t i = 1; i < n; ++i) {
    const int64_t gap = timestamps[i] - timestamps[i - 1];
    if (gap > 0 && (dt == 0 || gap < dt)) {
      dt = gap;
    }
  }
  return dt;
}

}  // namespace

const char* QualityVerdictName(QualityVerdict verdict) {
  switch (verdict) {
    case QualityVerdict::kOk:
      return "ok";
    case QualityVerdict::kGappy:
      return "gappy";
    case QualityVerdict::kFlapping:
      return "flapping";
    case QualityVerdict::kCorrupt:
      return "corrupt";
  }
  return "unknown";
}

void QuarantineRecord::Merge(const QuarantineRecord& other) {
  worst = std::max(worst, other.worst);
  windows_quarantined += other.windows_quarantined;
  windows_flagged += other.windows_flagged;
  non_finite += other.non_finite;
  negative += other.negative;
  missing += other.missing;
  flap_windows += other.flap_windows;
  max_skew = std::max(max_skew, other.max_skew);
  decode_failures += other.decode_failures;
  exceptions += other.exceptions;
  dropped_duplicate += other.dropped_duplicate;
  dropped_out_of_order += other.dropped_out_of_order;
  // Keep the FIRST exception identity: a series is scanned once per re-run,
  // so within a run there is at most one message and the merge order across
  // workers cannot change which one survives.
  if (last_error.empty()) {
    last_error = other.last_error;
  }
}

uint64_t QuarantineReport::total_windows_quarantined() const {
  uint64_t total = 0;
  for (const QuarantineRecord& record : records) {
    total += record.windows_quarantined;
  }
  return total;
}

uint64_t QuarantineReport::total_decode_failures() const {
  uint64_t total = 0;
  for (const QuarantineRecord& record : records) {
    total += record.decode_failures;
  }
  return total;
}

uint64_t QuarantineReport::total_exceptions() const {
  uint64_t total = 0;
  for (const QuarantineRecord& record : records) {
    total += record.exceptions;
  }
  return total;
}

uint64_t QuarantineReport::total_dropped_duplicate() const {
  uint64_t total = 0;
  for (const QuarantineRecord& record : records) {
    total += record.dropped_duplicate;
  }
  return total;
}

uint64_t QuarantineReport::total_dropped_out_of_order() const {
  uint64_t total = 0;
  for (const QuarantineRecord& record : records) {
    total += record.dropped_out_of_order;
  }
  return total;
}

WindowQuality InspectWindow(MetricKind kind, const WindowView& view, const WindowSpec& spec) {
  WindowQuality quality;
  if (view.full.empty()) {
    return quality;  // Absent in this window; nothing to classify.
  }
  quality.observed = true;

  // --- Value corruption: NaN/Inf, and counter-reset negatives for kinds
  // that are non-negative by definition (everything but free-form
  // application metrics).
  // One sweep counts non-finite values and finite negatives; the negative
  // count only matters (and is only applied) for kinds that are
  // non-negative by definition.
  const bool non_negative_kind = kind != MetricKind::kApplication;
  uint64_t non_finite = 0;
  uint64_t negative = 0;
  ClassifyValues(view.full.data(), view.full.size(), &non_finite, &negative);
  quality.non_finite = static_cast<uint32_t>(non_finite);
  if (non_negative_kind) {
    quality.negative = static_cast<uint32_t>(negative);
  }

  // --- Grid inference: the sampling interval is the smallest positive gap
  // between adjacent analysis-window timestamps. Dirty data can only widen
  // gaps (drops) — duplicates and out-of-order points were already rejected
  // at ingest — so the minimum is the true tick even in faulted windows.
  const std::span<const TimePoint>& stamps = view.analysis_timestamps;
  const Duration dt = MinPositiveGap(stamps.data(), stamps.size());
  quality.tick = dt;

  if (dt > 0) {
    // Constant per-host clock skew shows up as a grid-phase offset. It is
    // recorded but tolerated: a constant shift moves window boundaries by
    // less than one tick and cannot fake a level change.
    quality.skew = ((stamps.front() % dt) + dt) % dt;

    const uint64_t expected_historical =
        static_cast<uint64_t>(spec.historical / dt);
    const uint64_t expected_recent =
        static_cast<uint64_t>((spec.analysis + spec.extended) / dt);
    const uint64_t expected_total = expected_historical + expected_recent;
    const uint64_t present =
        view.historical.size() + view.analysis_plus_extended.size();
    if (present < expected_total) {
      quality.missing = static_cast<uint32_t>(expected_total - present);
    }
    quality.late_start =
        static_cast<double>(view.historical.size()) <
        kMinHistoricalCoverage * static_cast<double>(expected_historical);
    // Dark at the close: the newest sample should be within ~one tick of
    // as_of; two ticks of slack tolerates boundary jitter from skew.
    quality.early_end =
        stamps.empty() || (view.as_of - stamps.back()) > 2 * dt;

    const double gap_budget =
        kMaxGapFraction * static_cast<double>(expected_total);
    const bool gappy = static_cast<double>(quality.missing) > gap_budget;
    if (quality.non_finite > 0 || quality.negative > 0) {
      quality.verdict = QualityVerdict::kCorrupt;
    } else if (quality.late_start || quality.early_end) {
      quality.verdict = QualityVerdict::kFlapping;
    } else if (gappy) {
      quality.verdict = QualityVerdict::kGappy;
    }
  } else {
    // Too few recent samples to infer the grid. With historical data present
    // but (at most) one recent sample, the series went dark mid-window.
    quality.early_end = !view.historical.empty() && stamps.size() <= 1;
    if (quality.non_finite > 0 || quality.negative > 0) {
      quality.verdict = QualityVerdict::kCorrupt;
    } else if (quality.early_end) {
      quality.verdict = QualityVerdict::kFlapping;
    }
  }
  return quality;
}

}  // namespace fbdetect
