#include "src/core/went_away.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "src/stats/descriptive.h"
#include "src/stats/trend.h"
#include "src/tsa/sax.h"

namespace fbdetect {
namespace {

// §5.2.2's validity rule: a SAX letter is valid when its bucket holds at
// least this fraction (X = 3%) of the historical window's points.
constexpr double kValidBucketFraction = 0.03;
// NewPattern: at least this fraction of post-regression letters are invalid
// in the historical window.
constexpr double kNewPatternInvalidFraction = 0.6;
// LastingTrend: the projected slope must reach this many normalized MADs.
constexpr double kTrendCoefficient = 1.5;
// RegressionGoneAway: the tail has recovered below baseline + this fraction
// of the delta.
constexpr double kGoneAwayRecoveryFraction = 0.5;

}  // namespace

WentAwayVerdict WentAwayDetector::Evaluate(const ScanView& view,
                                           const ScanCandidate& candidate,
                                           size_t points_per_day) const {
  WentAwayVerdict verdict;
  const std::span<const double> historical = view.historical();
  const std::span<const double> analysis = view.analysis_plus_extended();
  if (historical.empty() || analysis.empty() ||
      candidate.change_index >= analysis.size()) {
    return verdict;
  }
  const std::span<const double> post = analysis.subspan(candidate.change_index);

  // SAX over the combined range so historical and post share bucket
  // boundaries — view.full IS that combined range, contiguous and already
  // oriented, so no concatenation is materialized. Validity is computed over
  // the historical span only, by counting historical encodings against the
  // combined-range encoder. SaxConfig's default is §5.2.2's N = 20 buckets.
  const SaxEncoder range_encoder(view.full, SaxConfig{});
  // Validity per letter over the HISTORICAL window. A non-finite value that
  // survived the sanitizer (sub-threshold NaN fraction, or the gate disabled)
  // must neither vote for a bucket nor index out of the count table, so skip
  // it and bounds-check the encoding before indexing.
  std::vector<size_t> hist_counts(static_cast<size_t>(range_encoder.num_buckets()), 0);
  for (double v : historical) {
    if (!std::isfinite(v)) {
      continue;
    }
    const int bucket = range_encoder.Encode(v) - 'a';
    if (bucket < 0 || bucket >= range_encoder.num_buckets()) {
      continue;
    }
    ++hist_counts[static_cast<size_t>(bucket)];
  }
  const double min_count = kValidBucketFraction * static_cast<double>(historical.size());
  auto is_valid = [&](char letter) {
    const int bucket = letter - 'a';
    if (bucket < 0 || bucket >= range_encoder.num_buckets()) {
      return false;
    }
    const size_t count = hist_counts[static_cast<size_t>(bucket)];
    return count > 0 && static_cast<double>(count) >= min_count;
  };
  char largest_valid = '\0';
  char lowest_valid = '\0';
  for (int b = 0; b < range_encoder.num_buckets(); ++b) {
    const char letter = static_cast<char>('a' + b);
    if (is_valid(letter)) {
      largest_valid = letter;
      if (lowest_valid == '\0') {
        lowest_valid = letter;
      }
    }
  }

  const std::string post_sax = range_encoder.EncodeSeries(post);

  // --- NewPattern ---
  size_t invalid = 0;
  for (char letter : post_sax) {
    if (!is_valid(letter)) {
      ++invalid;
    }
  }
  const double invalid_fraction =
      post_sax.empty() ? 1.0
                       : static_cast<double>(invalid) / static_cast<double>(post_sax.size());
  if (invalid_fraction >= kNewPatternInvalidFraction) {
    // New pattern — unless the level is BELOW the lowest valid bucket, which
    // means a new pattern without a cost increase.
    const double post_mean = Mean(post);
    const bool below_history =
        lowest_valid != '\0' && post_mean < range_encoder.BucketLowerBound(lowest_valid);
    verdict.new_pattern = !below_history;
  }

  // --- SignificantRegression ---
  char largest_post = '\0';
  for (char letter : post_sax) {
    largest_post = std::max(largest_post, letter);
  }
  bool significant = largest_valid != '\0' && largest_post >= largest_valid;
  if (significant) {
    const double p90_post = Percentile(post, 90.0);
    const double p95_hist = Percentile(historical, 95.0);
    // "Previous day": the trailing day of the historical window when the
    // resolution is known, else its last quarter.
    const size_t day_points =
        points_per_day > 0
            ? std::min(points_per_day, historical.size())
            : std::max<size_t>(1, historical.size() / 4);
    const std::span<const double> previous_day =
        historical.subspan(historical.size() - day_points);
    const double p90_prev_day = Percentile(previous_day, 90.0);
    significant = p90_post > p95_hist && p90_post > p90_prev_day;
  }
  verdict.significant = significant;

  // --- LastingTrend ---
  const MannKendallResult mk_post = MannKendallTest(post, 0.05);
  const MannKendallResult mk_full = MannKendallTest(analysis, 0.05);
  const bool upward_post = mk_post.direction == TrendDirection::kIncreasing;
  const bool upward_full = mk_full.direction == TrendDirection::kIncreasing;
  if (upward_post || upward_full) {
    double slope = 0.0;
    if (upward_post && upward_full) {
      const TheilSenResult ts_post = TheilSenEstimate(post);
      const TheilSenResult ts_full = TheilSenEstimate(analysis);
      slope = std::min(ts_post.slope, ts_full.slope);  // Lower slope wins.
    } else if (upward_post) {
      slope = TheilSenEstimate(post).slope;
    } else {
      slope = TheilSenEstimate(analysis).slope;
    }
    // Threshold: coefficient x MAD x 1.4826 of the historical window. The
    // slope is per tick; project it over the post window to compare a total
    // movement against the noise scale.
    const double mad = MedianAbsoluteDeviation(historical, /*normalized=*/true);
    const double threshold = kTrendCoefficient * mad;
    verdict.lasting_trend =
        slope * static_cast<double>(std::max<size_t>(post.size(), 1)) >= threshold;
  } else if (mk_post.direction != TrendDirection::kDecreasing) {
    // Step regression with a stable elevated plateau: no trend either way,
    // but the level persists — that IS lasting.
    verdict.lasting_trend = true;
  }

  // --- RegressionGoneAway ---
  const size_t tail = std::min(kGoneAwayTailPoints, post.size());
  const double tail_mean = Mean(post.subspan(post.size() - tail));
  verdict.gone_away =
      tail_mean <= candidate.baseline_mean +
                       kGoneAwayRecoveryFraction * candidate.delta;

  verdict.keep = verdict.new_pattern ||
                 (verdict.significant && verdict.lasting_trend && !verdict.gone_away);
  return verdict;
}

}  // namespace fbdetect
