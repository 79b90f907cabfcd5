// PairwiseDedup (§5.5.2): the quality-optimized second deduplication pass.
//
// Takes representatives surviving SOMDedup and cost-shift filtering, and
// merges them into persistent groups spanning analysis windows and metric
// types. For each (new regression, existing group) pair it computes feature
// similarity scores:
//  * Pearson time-series correlation — max over group members, on the
//    timestamp-aligned overlap of the analysis windows;
//  * text cosine similarity of metric IDs — max over members;
//  * stack-trace overlap — fraction of shared samples between two
//    subroutines' gCPU calculations (via a pluggable provider, since it
//    needs profile data).
// A user-configurable rule decides the merge; the default follows the
// paper's example shape: strong correlation plus either textual or
// stack-trace affinity. Among eligible groups the one with the highest
// aggregate score wins (ties to the lowest group id, matching the original
// serial scan order).
//
// Ingest internals (PR 3): instead of re-tokenizing every member string per
// pair, each group keeps its members' hashed token vectors. Every existing
// group is scored against each candidate in parallel into per-group slots,
// and the argmax merge is applied serially in ascending group id —
// byte-identical to the historical all-pairs loop for any pool size.
// Pearson alignment walks the two sorted timestamp arrays with two pointers
// (no per-pair hash map) and is bit-exact with PearsonCorrelation over the
// materialized aligned values.
#ifndef FBDETECT_SRC_CORE_PAIRWISE_DEDUP_H_
#define FBDETECT_SRC_CORE_PAIRWISE_DEDUP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/fingerprint.h"
#include "src/core/regression.h"
#include "src/stats/text.h"

namespace fbdetect {

// Returns the sample overlap in [0, 1] of two subroutines' gCPU stack
// samples; used for the stack-trace-overlap feature. May be empty (feature
// = 0). Must be safe to call concurrently: Ingest invokes it from pool
// workers when given a ThreadPool.
using StackOverlapFn =
    std::function<double(const MetricId& a, const MetricId& b)>;

struct PairwiseScores {
  double pearson = 0.0;
  double text = 0.0;
  double stack_overlap = 0.0;

  double Aggregate() const { return pearson + text + stack_overlap; }
};

struct PairwiseRule {
  double min_pearson = 0.70;
  double min_text = 0.40;
  double min_stack_overlap = 0.30;

  // Default rule: correlated in time AND related in identity (by name or by
  // shared stack samples).
  bool ShouldMerge(const PairwiseScores& scores) const {
    return scores.pearson >= min_pearson &&
           (scores.text >= min_text || scores.stack_overlap >= min_stack_overlap);
  }
};

struct RegressionGroup {
  int group_id = -1;
  std::vector<Regression> members;  // members[0] is the representative.
};

// Pearson correlation over the timestamp-aligned overlap of two regressions'
// analysis windows; 0 below 8 aligned points (regressions observed in
// disjoint windows share no co-movement evidence — merging them must be
// justified by the identity features instead). Requires the documented
// invariant analysis_timestamps.size() == analysis.size() on both sides
// (FBD_CHECK) and strictly increasing timestamps. Exposed for tests and
// benchmarks.
double AlignedPearson(const Regression& a, const Regression& b);

class PairwiseDedup {
 public:
  explicit PairwiseDedup(PairwiseRule rule = {}, StackOverlapFn overlap = nullptr)
      : rule_(rule), overlap_(std::move(overlap)) {}

  // Merges each new candidate into the best matching existing group or
  // opens a new group. Returns the indices of groups that are NEW (their
  // representative should proceed to root-cause analysis). `pool` (optional)
  // parallelizes the scoring of one candidate against the existing groups;
  // results are byte-identical for any pool size.
  // Checks the analysis_timestamps invariant on every candidate.
  std::vector<int> Ingest(std::vector<FunnelCandidate> candidates, ThreadPool* pool = nullptr);

  const std::vector<RegressionGroup>& groups() const { return groups_; }

  // Mutable access to a group's representative (members[0]), so root-cause
  // analysis can run in place instead of on a copy.
  Regression& GroupRepresentative(int group_id);

 private:
  // Scores `candidate` against every group into the aggregates_ / eligible_
  // slots, optionally in parallel.
  void ScoreCandidate(const FunnelCandidate& candidate, ThreadPool* pool);
  void AppendMember(int group_id, FunnelCandidate candidate);
  int OpenGroup(FunnelCandidate candidate);

  PairwiseRule rule_;
  StackOverlapFn overlap_;
  std::vector<RegressionGroup> groups_;
  // Hashed token vector per member, parallel to groups_[g].members.
  std::vector<std::vector<TokenVector>> member_tokens_;

  // Per-candidate scratch, parallel to groups_ (capacity reused across
  // candidates and runs).
  std::vector<double> aggregates_;
  std::vector<uint8_t> eligible_;
};

}  // namespace fbdetect

#endif  // FBDETECT_SRC_CORE_PAIRWISE_DEDUP_H_
