// SOMDedup (§5.5.1): fast first-pass deduplication of regressions detected in
// the same analysis window over the same metric type.
//
// Each regression becomes a feature vector:
//   * time-series shape — Fourier magnitudes, variance, normalized change
//     index, absolute and relative magnitude;
//   * candidate root causes — a hashed bitmap of the commits that touched the
//     regressed subroutine right before the change;
//   * metric ID — a TF-IDF embedding over 2/3-character-grams.
// Vectors are z-score normalized per dimension, clustered on an L x L SOM
// with L = ceil(n^(1/4)), and each cluster is reduced to the regression with
// the highest ImportanceScore:
//   0.2*RelativeCostChange + 0.6*AbsoluteCostChange +
//   0.1*(1 - PopularityScore) + 0.1*PotentialRootCauseFound.
//
// Funnel path (PR 3): the shape block and the hashed gram set come
// precomputed in each candidate's RegressionFingerprint, so Deduplicate only
// fits the cohort TF-IDF model on cached grams, appends the embeddings into
// a flat feature matrix (in parallel), and runs the SOM. BMU assignment fans
// over the pool; training stays the sequential online algorithm so results
// are byte-identical with the historical implementation.
#ifndef FBDETECT_SRC_CORE_SOM_DEDUP_H_
#define FBDETECT_SRC_CORE_SOM_DEDUP_H_

#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/fingerprint.h"
#include "src/core/regression.h"
#include "src/core/som.h"

namespace fbdetect {

class SomDedup {
 public:
  // Clusters `candidates` (fingerprinted by ComputeFingerprint) and returns
  // one representative per cluster (the max-ImportanceScore member), with
  // `som_cluster`, `importance`, and `merged_count` filled in. Input order
  // does not affect the set of representatives chosen (ties break on metric
  // ID). `pool` may be null (serial); results are byte-identical for any
  // pool size.
  std::vector<FunnelCandidate> Deduplicate(std::vector<FunnelCandidate> candidates,
                                           ThreadPool* pool) const;

  // The ImportanceScore of one regression given cohort-normalization bounds.
  double ImportanceScore(const Regression& regression, double max_abs_delta,
                         double max_rel_delta) const;
};

}  // namespace fbdetect

#endif  // FBDETECT_SRC_CORE_SOM_DEDUP_H_
