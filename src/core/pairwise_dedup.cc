#include "src/core/pairwise_dedup.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "src/common/check.h"
#include "src/stats/correlation.h"

namespace fbdetect {

double AlignedPearson(const Regression& a, const Regression& b) {
  // Documented invariant (regression.h): both detector paths fill
  // analysis_timestamps over the exact analysis range. A mismatch would
  // silently truncate the alignment, so fail loudly instead.
  FBD_CHECK(a.analysis_timestamps.size() == a.analysis.size());
  FBD_CHECK(b.analysis_timestamps.size() == b.analysis.size());
  if (a.analysis.empty() || b.analysis.empty()) {
    return 0.0;
  }
  // One two-pointer merge over the sorted timestamp arrays gathers the
  // aligned pairs into per-thread scratch (ascending a-index — the order the
  // historical implementation materialized them), then PearsonCorrelation
  // runs over the contiguous pairs. Bit-exact with PearsonCorrelation(xs, ys)
  // on the materialized arrays by construction, without a per-pair hash map.
  // The scratch only grows, so steady-state calls allocate nothing.
  const size_t an = a.analysis.size();
  const size_t bn = b.analysis.size();
  thread_local std::vector<double> xs;
  thread_local std::vector<double> ys;
  if (xs.size() < std::min(an, bn)) {
    xs.resize(std::min(an, bn));
    ys.resize(xs.size());
  }
  size_t n = 0;
  for (size_t i = 0, j = 0; i < an && j < bn;) {
    const TimePoint ta = a.analysis_timestamps[i];
    const TimePoint tb = b.analysis_timestamps[j];
    if (ta < tb) {
      ++i;
    } else if (tb < ta) {
      ++j;
    } else {
      xs[n] = a.analysis[i];
      ys[n] = b.analysis[j];
      ++n;
      ++i;
      ++j;
    }
  }
  if (n < 8) {
    return 0.0;
  }
  return PearsonCorrelation(std::span<const double>(xs).first(n),
                            std::span<const double>(ys).first(n));
}

Regression& PairwiseDedup::GroupRepresentative(int group_id) {
  FBD_CHECK(group_id >= 0 && static_cast<size_t>(group_id) < groups_.size());
  FBD_CHECK(!groups_[static_cast<size_t>(group_id)].members.empty());
  return groups_[static_cast<size_t>(group_id)].members.front();
}

void PairwiseDedup::ScoreCandidate(const FunnelCandidate& candidate, ThreadPool* pool) {
  aggregates_.assign(groups_.size(), 0.0);
  eligible_.assign(groups_.size(), 0);
  // A pool dispatch per probe costs more than scoring a handful of groups.
  // The granularity floor keeps tiny group lists on the calling thread
  // (identical results either way — per-index slots).
  constexpr size_t kMinGroupsPerLane = 4;
  ParallelIndexFor(
      groups_.size(), pool,
      [&](size_t g) {
        const RegressionGroup& group = groups_[g];
        PairwiseScores scores;
        for (size_t m = 0; m < group.members.size(); ++m) {
          const Regression& member = group.members[m];
          scores.pearson =
              std::max(scores.pearson, AlignedPearson(candidate.regression, member));
          scores.text = std::max(
              scores.text,
              CosineSimilarity(candidate.fingerprint.tokens, member_tokens_[g][m]));
        }
        eligible_[g] = rule_.ShouldMerge(scores) ? 1 : 0;
        aggregates_[g] = scores.Aggregate();
      },
      kMinGroupsPerLane);
}

void PairwiseDedup::AppendMember(int group_id, FunnelCandidate candidate) {
  const size_t g = static_cast<size_t>(group_id);
  member_tokens_[g].push_back(std::move(candidate.fingerprint.tokens));
  groups_[g].members.push_back(std::move(candidate.regression));
}

int PairwiseDedup::OpenGroup(FunnelCandidate candidate) {
  const int group_id = static_cast<int>(groups_.size());
  groups_.emplace_back();
  groups_.back().group_id = group_id;
  member_tokens_.emplace_back();
  AppendMember(group_id, std::move(candidate));
  return group_id;
}

std::vector<int> PairwiseDedup::Ingest(std::vector<FunnelCandidate> candidates,
                                       ThreadPool* pool) {
  std::vector<int> new_groups;
  for (FunnelCandidate& candidate : candidates) {
    FBD_CHECK(candidate.regression.analysis_timestamps.size() ==
              candidate.regression.analysis.size());
    ScoreCandidate(candidate, pool);
    // Serial argmax in ascending group id: strict > keeps the first (lowest
    // id) group on ties and rejects aggregates of exactly 0.0 — the same
    // semantics as the historical all-pairs loop.
    int best_group = -1;
    double best_aggregate = 0.0;
    for (size_t g = 0; g < groups_.size(); ++g) {
      if (eligible_[g] != 0 && aggregates_[g] > best_aggregate) {
        best_aggregate = aggregates_[g];
        best_group = static_cast<int>(g);
      }
    }
    if (best_group >= 0) {
      AppendMember(best_group, std::move(candidate));
      continue;
    }
    new_groups.push_back(OpenGroup(std::move(candidate)));
  }
  return new_groups;
}

}  // namespace fbdetect
