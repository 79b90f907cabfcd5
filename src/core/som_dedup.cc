#include "src/core/som_dedup.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/common/check.h"
#include "src/stats/text.h"

namespace fbdetect {
namespace {

// ImportanceScore weights (§5.5.1).
constexpr double kWeightRelative = 0.2;
constexpr double kWeightAbsolute = 0.6;
constexpr double kWeightPopularity = 0.1;
constexpr double kWeightRootCause = 0.1;
// Dimensions of the TF-IDF metric-ID embedding.
constexpr size_t kMetricIdDims = 8;

// Z-score normalization per dimension (constant dimensions collapse to 0).
// Same summation order as the historical nested-vector version.
void NormalizeColumns(FlatMatrix& rows) {
  if (rows.rows == 0) {
    return;
  }
  for (size_t d = 0; d < rows.cols; ++d) {
    double mean = 0.0;
    for (size_t r = 0; r < rows.rows; ++r) {
      mean += rows.row(r)[d];
    }
    mean /= static_cast<double>(rows.rows);
    double var = 0.0;
    for (size_t r = 0; r < rows.rows; ++r) {
      const double diff = rows.row(r)[d] - mean;
      var += diff * diff;
    }
    var /= static_cast<double>(rows.rows);
    const double sd = std::sqrt(var);
    for (size_t r = 0; r < rows.rows; ++r) {
      double& value = rows.mutable_row(r)[d];
      value = sd > 0.0 ? (value - mean) / sd : 0.0;
    }
  }
}

}  // namespace

double SomDedup::ImportanceScore(const Regression& regression, double max_abs_delta,
                                 double max_rel_delta) const {
  const double relative =
      max_rel_delta > 0.0 ? std::fabs(regression.relative_delta) / max_rel_delta : 0.0;
  const double absolute = max_abs_delta > 0.0 ? std::fabs(regression.delta) / max_abs_delta : 0.0;
  // PopularityScore: probability of the regressed subroutine appearing in a
  // random stack-trace sample. For gCPU metrics the baseline mean IS that
  // probability; for other metrics use a neutral 0.5.
  const double popularity = regression.metric.kind == MetricKind::kGcpu
                                ? std::clamp(regression.baseline_mean, 0.0, 1.0)
                                : 0.5;
  const double has_root_cause = regression.candidate_root_causes.empty() ? 0.0 : 1.0;
  return kWeightRelative * relative + kWeightAbsolute * absolute +
         kWeightPopularity * (1.0 - popularity) + kWeightRootCause * has_root_cause;
}

std::vector<FunnelCandidate> SomDedup::Deduplicate(std::vector<FunnelCandidate> candidates,
                                                   ThreadPool* pool) const {
  if (candidates.size() <= 1) {
    for (FunnelCandidate& candidate : candidates) {
      candidate.regression.som_cluster = 0;
      candidate.regression.importance =
          ImportanceScore(candidate.regression, std::fabs(candidate.regression.delta),
                          std::fabs(candidate.regression.relative_delta));
    }
    return candidates;
  }

  // Fit the metric-ID TF-IDF model on this cohort's cached gram sets — the
  // metric strings are never re-tokenized here.
  std::vector<const HashedGrams*> corpus;
  corpus.reserve(candidates.size());
  for (const FunnelCandidate& candidate : candidates) {
    corpus.push_back(&candidate.fingerprint.grams);
  }
  TfIdfHasher hasher(kMetricIdDims);
  hasher.FitHashed(corpus);

  // Assemble the flat feature matrix: cached shape block + cohort-fitted
  // metric embedding, one row per candidate, filled in parallel.
  const size_t base_dims = candidates[0].fingerprint.som_base.size();
  FBD_CHECK(base_dims > 0);
  FlatMatrix features;
  features.Resize(candidates.size(), base_dims + kMetricIdDims);
  ParallelIndexFor(candidates.size(), pool, [&](size_t i) {
    const RegressionFingerprint& fingerprint = candidates[i].fingerprint;
    FBD_CHECK(fingerprint.som_base.size() == base_dims);
    const std::span<double> row = features.mutable_row(i);
    std::copy(fingerprint.som_base.begin(), fingerprint.som_base.end(), row.begin());
    hasher.EmbedHashed(fingerprint.grams, row.subspan(base_dims));
  });
  NormalizeColumns(features);

  const int grid = SomGridSize(candidates.size());
  const SomTrainConfig training;
  SelfOrganizingMap som(features.cols, grid, training.seed);
  som.Train(features, training);
  std::vector<int> assignment(candidates.size());
  som.Assign(features, assignment, pool);

  // Cohort normalization bounds for ImportanceScore.
  double max_abs = 0.0;
  double max_rel = 0.0;
  for (const FunnelCandidate& candidate : candidates) {
    max_abs = std::max(max_abs, std::fabs(candidate.regression.delta));
    max_rel = std::max(max_rel, std::fabs(candidate.regression.relative_delta));
  }

  // Pick the max-importance member per cluster (ties break on the cached
  // metric string).
  std::vector<int> best_index(static_cast<size_t>(grid) * static_cast<size_t>(grid), -1);
  std::vector<size_t> cluster_sizes(best_index.size(), 0);
  for (size_t i = 0; i < candidates.size(); ++i) {
    Regression& regression = candidates[i].regression;
    regression.som_cluster = assignment[i];
    regression.importance = ImportanceScore(regression, max_abs, max_rel);
    const size_t cell = static_cast<size_t>(assignment[i]);
    ++cluster_sizes[cell];
    if (best_index[cell] < 0) {
      best_index[cell] = static_cast<int>(i);
      continue;
    }
    const FunnelCandidate& incumbent = candidates[static_cast<size_t>(best_index[cell])];
    const FunnelCandidate& challenger = candidates[i];
    const bool better =
        challenger.regression.importance > incumbent.regression.importance ||
        (challenger.regression.importance == incumbent.regression.importance &&
         challenger.fingerprint.metric_string < incumbent.fingerprint.metric_string);
    if (better) {
      best_index[cell] = static_cast<int>(i);
    }
  }

  std::vector<FunnelCandidate> representatives;
  for (size_t cell = 0; cell < best_index.size(); ++cell) {
    if (best_index[cell] >= 0) {
      FunnelCandidate representative =
          std::move(candidates[static_cast<size_t>(best_index[cell])]);
      representative.regression.merged_count = cluster_sizes[cell];
      representatives.push_back(std::move(representative));
    }
  }
  return representatives;
}

}  // namespace fbdetect
