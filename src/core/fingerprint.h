// RegressionFingerprint (PR 3): the per-survivor text/shape artifacts that
// the funnel stages used to re-derive over and over — the canonical metric
// string, its tokenized term vector, its hashed 2/3-gram set, and the
// metric-independent part of the SOM feature vector. Computed exactly once
// (in parallel, right after the scan) and threaded through
// SameRegressionMerger, SOMDedup, PairwiseDedup, and root cause, so no
// funnel stage calls metric.ToString(), TokenizeIdentifier, or gram
// materialization on the hot path again.
//
// Lifetime rules: a fingerprint describes the Regression it was computed
// from and travels WITH it (FunnelCandidate bundles the two). Stages may
// move candidates freely — every field is self-contained — but a stage that
// mutates `regression.metric`, `analysis`, `delta`, `relative_delta`,
// `change_index`, or `candidate_root_causes` invalidates the fingerprint and
// must recompute it. No funnel stage does; they only attach results
// (importance, som_cluster, merged_count, root_causes).
#ifndef FBDETECT_SRC_CORE_FINGERPRINT_H_
#define FBDETECT_SRC_CORE_FINGERPRINT_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/core/regression.h"
#include "src/stats/text.h"

namespace fbdetect {

// Sizing of the SOM shape-feature block (§5.5.1): Fourier magnitudes of the
// analysis window, and the width of the hashed root-cause bitmap.
inline constexpr size_t kFourierCoefficients = 4;
inline constexpr size_t kRootCauseBitmapDims = 8;

struct RegressionFingerprint {
  // metric.ToString(), computed once.
  std::string metric_string;
  // Hashed token term vector of metric_string (SameRegressionMerger key is
  // the string; PairwiseDedup's text cosine runs on this).
  TokenVector tokens;
  // Hashed 2/3-gram multiset of metric_string (SOMDedup's TF-IDF corpus and
  // embedding input).
  HashedGrams grams;
  // Metric-independent SOM features: Fourier magnitudes, variance, change
  // position, absolute/relative magnitude, root-cause bitmap. SOMDedup
  // appends the cohort-fitted TF-IDF metric embedding (from `grams`) to
  // form the full clustering vector.
  std::vector<double> som_base;
};

// A regression plus its fingerprint: the unit that flows through the funnel.
struct FunnelCandidate {
  Regression regression;
  RegressionFingerprint fingerprint;
};

// Computes the fingerprint of one regression. Pure; safe to call
// concurrently for distinct regressions.
RegressionFingerprint ComputeFingerprint(const Regression& regression);

}  // namespace fbdetect

#endif  // FBDETECT_SRC_CORE_FINGERPRINT_H_
