// Aggregation of stack-trace samples into per-subroutine gCPU, plus the
// sample-overlap bookkeeping PairwiseDedup's stack-trace-overlap feature
// needs (§5.5.2).
//
// gCPU of subroutine u = (number of samples containing u) / (total samples),
// where "containing" counts a subroutine at most once per sample (§4). The
// gCPU therefore includes the cost of transitively invoked children.
#ifndef FBDETECT_SRC_PROFILING_PROFILE_H_
#define FBDETECT_SRC_PROFILING_PROFILE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/profiling/call_graph.h"

namespace fbdetect {

class ProfileAggregate {
 public:
  // Records one stack-trace sample (node ids, root to leaf). Duplicate ids
  // within one sample (should not happen in a DAG) are counted once.
  void AddSample(const std::vector<NodeId>& stack);

  uint64_t total_samples() const { return total_samples_; }

  // Samples containing the node.
  uint64_t CountOf(NodeId id) const;

  // gCPU of the node: CountOf / total_samples; 0 when no samples.
  double Gcpu(NodeId id) const;

  // Fraction of samples containing BOTH a and b relative to samples
  // containing EITHER (Jaccard overlap of their sample sets) — the
  // stack-trace-overlap similarity.
  double SampleOverlap(NodeId a, NodeId b) const;

  // Merges another aggregate (e.g. from another server) into this one.
  // Sample indices are disjoint by construction.
  void Merge(const ProfileAggregate& other);

 private:
  uint64_t total_samples_ = 0;
  // Per node: sorted indices of samples containing it. Indices are local to
  // this aggregate; Merge offsets them.
  std::unordered_map<NodeId, std::vector<uint64_t>> containing_samples_;
};

}  // namespace fbdetect

#endif  // FBDETECT_SRC_PROFILING_PROFILE_H_
