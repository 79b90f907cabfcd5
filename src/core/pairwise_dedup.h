// PairwiseDedup (§5.5.2): the quality-optimized second deduplication pass.
//
// Takes representatives surviving SOMDedup and cost-shift filtering, and
// merges them into persistent groups spanning analysis windows and metric
// types. For each (new regression, existing group) pair it computes feature
// similarity scores:
//  * Pearson time-series correlation — max over group members, on the
//    timestamp-aligned overlap of the analysis windows;
//  * text cosine similarity of metric IDs — max over members.
// The paper also lists stack-trace overlap (the fraction of samples two
// subroutines' gCPU share). It needs per-sample stacks, which the analytic
// profiler does not keep, so this reproduction scores the two features
// above. A rule decides the merge; the default follows the paper's example
// shape: strong correlation plus textual affinity. Among eligible groups the
// one with the highest aggregate score wins (ties to the lowest group id,
// matching the original serial scan order).
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
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/fingerprint.h"
#include "src/core/regression.h"
#include "src/stats/text.h"

namespace fbdetect {

struct PairwiseScores {
  double pearson = 0.0;
  double text = 0.0;

  double Aggregate() const { return pearson + text; }
};

struct PairwiseRule {
  double min_pearson = 0.70;
  double min_text = 0.40;

  // Correlated in time AND related by name.
  bool ShouldMerge(const PairwiseScores& scores) const {
    return scores.pearson >= min_pearson && scores.text >= min_text;
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
  explicit PairwiseDedup(PairwiseRule rule = {}) : rule_(rule) {}

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
