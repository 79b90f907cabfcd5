#include "src/core/seasonality_stage.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "src/common/check.h"
#include "src/stats/descriptive.h"

namespace fbdetect {
namespace {

// A deseasonalized shift below this many residual standard deviations, in
// both the analysis and the extended window, is seasonal.
constexpr double kSeasonalityZscoreThreshold = 2.0;

}  // namespace

const SeasonalityEstimate& WindowSeasonality::Estimate() {
  if (!estimate_) {
    StageTimer timer(estimate_ns_);
    estimate_ = DetectSeasonality(full_, /*min_period=*/4, /*max_period=*/full_.size() / 3,
                                  kSeasonalityMinCorrelation);
  }
  return *estimate_;
}

const Decomposition& WindowSeasonality::Stl(size_t period) {
  if (!stl_) {
    StageTimer timer(stl_ns_);
    stl_ = StlDecompose(full_, period);
    stl_period_ = period;
  }
  FBD_CHECK(stl_period_ == period);
  return *stl_;
}

SeasonalityVerdict SeasonalityStage::Evaluate(const ScanView& view,
                                              const ScanCandidate& candidate,
                                              WindowSeasonality& seasonality) const {
  SeasonalityVerdict verdict;
  const size_t analysis_total = view.analysis_size + view.extended_size;
  if (view.historical_size < 16 || analysis_total == 0) {
    return verdict;
  }

  // Seasonality is estimated over historical + analysis so the period seen in
  // the baseline can be projected into the analysis window. view.full IS that
  // combined range — contiguous, already oriented, nothing materialized.
  const std::span<const double> combined = view.full;

  const SeasonalityEstimate& season = seasonality.Estimate();
  if (!season.present) {
    return verdict;  // No seasonality: the stage passes the regression on.
  }
  verdict.seasonality_present = true;
  verdict.period = season.period;

  const Decomposition& stl = seasonality.Stl(season.period);
  if (!stl.valid) {
    return verdict;
  }
  const std::vector<double> deseasonalized = stl.Deseasonalized();
  const double residual_sd = SampleStdDev(stl.residual);
  if (residual_sd <= 0.0) {
    return verdict;
  }

  // Index of the change point within `combined`.
  const size_t change = view.historical_size + candidate.change_index;
  const size_t analysis_end = combined.size() - view.extended_size;
  if (change >= combined.size()) {
    return verdict;
  }
  const std::span<const double> cleaned(deseasonalized);
  const double median_before = Median(cleaned.subspan(0, change));

  // z-score over the post-change part of the analysis window.
  const size_t analysis_post = analysis_end > change ? analysis_end - change : 0;
  if (analysis_post > 0) {
    const double median_after = Median(cleaned.subspan(change, analysis_post));
    verdict.analysis_zscore = (median_after - median_before) / residual_sd;
  }
  // z-score over the extended window (when present).
  if (view.extended_size > 0 && analysis_end < combined.size()) {
    const double median_ext = Median(cleaned.subspan(analysis_end));
    verdict.extended_zscore = (median_ext - median_before) / residual_sd;
  } else {
    verdict.extended_zscore = verdict.analysis_zscore;
  }

  // Filter as seasonal only when the deseasonalized shift is small in BOTH
  // windows (§5.2.3 requires both z-scores below the threshold).
  verdict.seasonal_filtered =
      verdict.analysis_zscore < kSeasonalityZscoreThreshold &&
      verdict.extended_zscore < kSeasonalityZscoreThreshold;
  return verdict;
}

}  // namespace fbdetect
