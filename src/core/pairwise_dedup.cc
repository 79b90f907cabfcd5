#include "src/core/pairwise_dedup.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "src/common/arena.h"
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
  // aligned pairs into arena scratch (ascending a-index — the order the
  // historical implementation materialized them), then PearsonCorrelation
  // runs over the contiguous pairs. Bit-exact with PearsonCorrelation(xs, ys)
  // on the materialized arrays by construction, without a per-pair hash map
  // or heap-allocated xs/ys vectors.
  const size_t an = a.analysis.size();
  const size_t bn = b.analysis.size();
  ArenaScope scope(Arena::ThreadLocal());
  const std::span<double> xs = scope.MakeUninitializedSpan<double>(std::min(an, bn));
  const std::span<double> ys = scope.MakeUninitializedSpan<double>(std::min(an, bn));
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
  return PearsonCorrelation(xs.first(n), ys.first(n));
}

PairwiseScores PairwiseDedup::Score(const Regression& candidate,
                                    const RegressionGroup& group) const {
  PairwiseScores scores;
  for (const Regression& member : group.members) {
    scores.pearson = std::max(scores.pearson, AlignedPearson(candidate, member));
    scores.text = std::max(
        scores.text,
        TextCosineSimilarity(candidate.metric.ToString(), member.metric.ToString()));
    if (overlap_ != nullptr && candidate.metric.kind == MetricKind::kGcpu &&
        member.metric.kind == MetricKind::kGcpu) {
      scores.stack_overlap =
          std::max(scores.stack_overlap, overlap_(candidate.metric, member.metric));
    }
  }
  return scores;
}

Regression& PairwiseDedup::GroupRepresentative(int group_id) {
  FBD_CHECK(group_id >= 0 && static_cast<size_t>(group_id) < groups_.size());
  FBD_CHECK(!groups_[static_cast<size_t>(group_id)].members.empty());
  return groups_[static_cast<size_t>(group_id)].members.front();
}

void PairwiseDedup::CollectCandidateGroups(const FunnelCandidate& candidate) {
  candidate_groups_.clear();
  if (groups_.empty()) {
    return;
  }
  // Index pruning is only conservative when both identity thresholds are
  // exclusionary: with min_text <= 0 or min_stack_overlap <= 0 the merge
  // rule can pass on Pearson alone, so every group must be scored.
  if (rule_.min_text <= 0.0 || rule_.min_stack_overlap <= 0.0) {
    candidate_groups_.resize(groups_.size());
    for (size_t g = 0; g < groups_.size(); ++g) {
      candidate_groups_[g] = static_cast<int>(g);
    }
    return;
  }
  if (mark_stamp_ == std::numeric_limits<uint32_t>::max()) {
    std::fill(group_mark_.begin(), group_mark_.end(), 0);
    mark_stamp_ = 0;
  }
  ++mark_stamp_;
  // Groups sharing at least one metric token (text > 0 is impossible
  // otherwise).
  for (const HashedGram& term : candidate.fingerprint.tokens.terms) {
    const auto it = token_index_.find(term.hash);
    if (it == token_index_.end()) {
      continue;
    }
    for (int g : it->second) {
      if (group_mark_[static_cast<size_t>(g)] != mark_stamp_) {
        group_mark_[static_cast<size_t>(g)] = mark_stamp_;
        candidate_groups_.push_back(g);
      }
    }
  }
  // Groups that can satisfy the stack-overlap clause: it is only evaluated
  // for gCPU<->gCPU pairs with an overlap provider.
  if (overlap_ != nullptr && candidate.regression.metric.kind == MetricKind::kGcpu) {
    for (int g : gcpu_groups_) {
      if (group_mark_[static_cast<size_t>(g)] != mark_stamp_) {
        group_mark_[static_cast<size_t>(g)] = mark_stamp_;
        candidate_groups_.push_back(g);
      }
    }
  }
  // Ascending ids restore the historical scan order for the argmax
  // tie-break.
  std::sort(candidate_groups_.begin(), candidate_groups_.end());
}

void PairwiseDedup::ScoreCandidate(const FunnelCandidate& candidate, ThreadPool* pool) {
  aggregates_.assign(candidate_groups_.size(), 0.0);
  eligible_.assign(candidate_groups_.size(), 0);
  const bool candidate_gcpu = candidate.regression.metric.kind == MetricKind::kGcpu;
  // Token-index pruning usually leaves a handful of candidate groups; a pool
  // dispatch per probe would cost more than scoring them. The granularity
  // floor keeps tiny group lists on the calling thread (identical results
  // either way — per-index slots).
  constexpr size_t kMinGroupsPerLane = 4;
  ParallelIndexFor(
      candidate_groups_.size(), pool,
      [&](size_t k) {
        const size_t g = static_cast<size_t>(candidate_groups_[k]);
        const RegressionGroup& group = groups_[g];
        const GroupSummary& summary = summaries_[g];
        PairwiseScores scores;
        for (size_t m = 0; m < group.members.size(); ++m) {
          const Regression& member = group.members[m];
          scores.pearson =
              std::max(scores.pearson, AlignedPearson(candidate.regression, member));
          scores.text = std::max(
              scores.text,
              CosineSimilarity(candidate.fingerprint.tokens, summary.member_tokens[m]));
          if (overlap_ != nullptr && candidate_gcpu &&
              member.metric.kind == MetricKind::kGcpu) {
            scores.stack_overlap = std::max(
                scores.stack_overlap, overlap_(candidate.regression.metric, member.metric));
          }
        }
        eligible_[k] = rule_.ShouldMerge(scores) ? 1 : 0;
        aggregates_[k] = scores.Aggregate();
      },
      kMinGroupsPerLane);
}

void PairwiseDedup::IndexTokens(const TokenVector& tokens, int group_id) {
  for (const HashedGram& term : tokens.terms) {
    std::vector<int>& list = token_index_[term.hash];
    if (list.empty() || list.back() != group_id) {
      list.push_back(group_id);
    }
  }
}

void PairwiseDedup::AppendMember(int group_id, FunnelCandidate candidate) {
  const size_t g = static_cast<size_t>(group_id);
  IndexTokens(candidate.fingerprint.tokens, group_id);
  if (candidate.regression.metric.kind == MetricKind::kGcpu && !summaries_[g].has_gcpu) {
    summaries_[g].has_gcpu = true;
    gcpu_groups_.push_back(group_id);
  }
  summaries_[g].member_tokens.push_back(std::move(candidate.fingerprint.tokens));
  groups_[g].members.push_back(std::move(candidate.regression));
}

int PairwiseDedup::OpenGroup(FunnelCandidate candidate) {
  const int group_id = static_cast<int>(groups_.size());
  groups_.emplace_back();
  groups_.back().group_id = group_id;
  summaries_.emplace_back();
  group_mark_.push_back(0);
  AppendMember(group_id, std::move(candidate));
  return group_id;
}

std::vector<int> PairwiseDedup::Ingest(std::vector<FunnelCandidate> candidates,
                                       ThreadPool* pool) {
  std::vector<int> new_groups;
  for (FunnelCandidate& candidate : candidates) {
    FBD_CHECK(candidate.regression.analysis_timestamps.size() ==
              candidate.regression.analysis.size());
    CollectCandidateGroups(candidate);
    ScoreCandidate(candidate, pool);
    // Serial argmax in ascending group id: strict > keeps the first (lowest
    // id) group on ties and rejects aggregates of exactly 0.0 — the same
    // semantics as the historical all-pairs loop.
    int best_group = -1;
    double best_aggregate = 0.0;
    for (size_t k = 0; k < candidate_groups_.size(); ++k) {
      if (eligible_[k] != 0 && aggregates_[k] > best_aggregate) {
        best_aggregate = aggregates_[k];
        best_group = candidate_groups_[k];
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

std::vector<int> PairwiseDedup::Ingest(std::vector<Regression> regressions) {
  const FingerprintConfig fp_config{0, 0, /*som_features=*/false};
  std::vector<FunnelCandidate> candidates(regressions.size());
  for (size_t i = 0; i < regressions.size(); ++i) {
    candidates[i].fingerprint = ComputeFingerprint(regressions[i], fp_config);
    candidates[i].regression = std::move(regressions[i]);
  }
  return Ingest(std::move(candidates), nullptr);
}

}  // namespace fbdetect
