#include "src/core/scan_view.h"

namespace fbdetect {

ScanView OrientWindows(const WindowView& view, double sign, std::vector<double>& scratch) {
  ScanView oriented;
  oriented.historical_size = view.historical.size();
  oriented.analysis_size = view.analysis.size();
  oriented.extended_size = view.extended.size();
  oriented.analysis_timestamps = view.analysis_timestamps;
  oriented.analysis_begin = view.analysis_begin;
  oriented.as_of = view.as_of;
  if (sign >= 0.0) {
    oriented.full = view.full;
    return oriented;
  }
  scratch.resize(view.full.size());
  for (size_t i = 0; i < view.full.size(); ++i) {
    scratch[i] = -view.full[i];
  }
  oriented.full = scratch;
  return oriented;
}

Regression MaterializeRegression(const MetricId& metric, const ScanView& view,
                                 const ScanCandidate& candidate) {
  Regression regression;
  regression.metric = metric;
  regression.detected_at = view.as_of;
  regression.change_index = candidate.change_index;
  regression.change_time = candidate.change_index < view.analysis_timestamps.size()
                               ? view.analysis_timestamps[candidate.change_index]
                               : view.as_of;
  regression.extended_size = view.extended_size;
  regression.p_value = candidate.p_value;
  regression.baseline_mean = candidate.baseline_mean;
  regression.regressed_mean = candidate.regressed_mean;
  regression.delta = candidate.delta;
  regression.relative_delta = candidate.relative_delta;
  const std::span<const double> historical = view.historical();
  const std::span<const double> analysis = view.analysis_plus_extended();
  regression.historical.assign(historical.begin(), historical.end());
  regression.analysis.assign(analysis.begin(), analysis.end());
  regression.analysis_timestamps.assign(view.analysis_timestamps.begin(),
                                        view.analysis_timestamps.end());
  return regression;
}

}  // namespace fbdetect
