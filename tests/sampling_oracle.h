// Explicit stack-walk sampling over a CallGraph, kept as a test oracle.
//
// The simulated profiler never walks stacks: SamplingProfiler::AnalyticBucket
// draws each subroutine's count from Binomial(n, reach) with the closed-form
// CallGraph::ReachProbabilities. These helpers draw the walks that closed
// form describes (call_graph.h's sampling model), one stack at a time, so
// tests can check the closed form against sampled gCPU. They use only
// CallGraph's public API.
#ifndef FBDETECT_TESTS_SAMPLING_ORACLE_H_
#define FBDETECT_TESTS_SAMPLING_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/check.h"
#include "src/common/random.h"
#include "src/profiling/call_graph.h"

namespace fbdetect::oracle {

// Picks an index in [0, weights.size()) proportionally to the weights, with
// one NextDouble. All weights must be >= 0 and at least one > 0.
inline size_t WeightedIndex(Rng& rng, const std::vector<double>& weights) {
  FBD_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    FBD_CHECK(w >= 0.0);
    total += w;
  }
  FBD_CHECK(total > 0.0);
  double target = rng.NextDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) {
      return i;
    }
  }
  return weights.size() - 1;
}

// Entry nodes (no callers), in node order.
inline std::vector<NodeId> Roots(const CallGraph& graph) {
  std::vector<bool> called(graph.node_count(), false);
  for (size_t v = 0; v < graph.node_count(); ++v) {
    for (const CallEdge& e : graph.edges(static_cast<NodeId>(v))) {
      called[static_cast<size_t>(e.callee)] = true;
    }
  }
  std::vector<NodeId> roots;
  for (size_t v = 0; v < called.size(); ++v) {
    if (!called[v]) {
      roots.push_back(static_cast<NodeId>(v));
    }
  }
  return roots;
}

// Draws one stack-trace sample (root-to-leaf node ids) from the graph's
// entry nodes `roots`: an entry weighted by subtree cost, then at each node a
// stop test with probability self/subtree and otherwise a callee weighted by
// weight * subtree(callee). One NextDouble per weighted pick and one per
// stop test.
inline std::vector<NodeId> SampleStack(const CallGraph& graph,
                                       const std::vector<NodeId>& roots, Rng& rng) {
  const std::vector<double>& subtree = graph.SubtreeCosts();
  std::vector<NodeId> stack;
  std::vector<double> weights;
  for (NodeId r : roots) {
    weights.push_back(subtree[static_cast<size_t>(r)]);
  }
  double total = 0.0;
  for (double w : weights) {
    total += w;
  }
  if (total <= 0.0) {
    return stack;
  }
  NodeId current = roots[WeightedIndex(rng, weights)];
  for (;;) {
    stack.push_back(current);
    const double sub = subtree[static_cast<size_t>(current)];
    if (sub <= 0.0) {
      break;
    }
    const std::vector<CallEdge>& edges = graph.edges(current);
    if (rng.NextDouble() < graph.node(current).self_cost / sub || edges.empty()) {
      break;
    }
    weights.clear();
    double edge_total = 0.0;
    for (const CallEdge& e : edges) {
      weights.push_back(e.weight * subtree[static_cast<size_t>(e.callee)]);
      edge_total += weights.back();
    }
    if (edge_total <= 0.0) {
      break;
    }
    current = edges[WeightedIndex(rng, weights)].callee;
  }
  return stack;
}

// Sampled gCPU of every node: the fraction of `samples` drawn stacks that
// contain it (a DAG walk visits each node at most once per stack).
inline std::vector<double> SampledGcpu(const CallGraph& graph, int samples, Rng& rng) {
  std::vector<uint64_t> containing(graph.node_count(), 0);
  const std::vector<NodeId> roots = Roots(graph);
  for (int i = 0; i < samples; ++i) {
    for (NodeId id : SampleStack(graph, roots, rng)) {
      ++containing[static_cast<size_t>(id)];
    }
  }
  std::vector<double> gcpu(containing.size(), 0.0);
  for (size_t i = 0; i < containing.size(); ++i) {
    gcpu[i] = static_cast<double>(containing[i]) / static_cast<double>(samples);
  }
  return gcpu;
}

}  // namespace fbdetect::oracle

#endif  // FBDETECT_TESTS_SAMPLING_ORACLE_H_
