// Call-graph model of a service's code.
//
// Nodes are subroutines (name, enclosing class, self CPU cost); weighted
// edges are call relations. The graph must be a DAG (no recursion), which the
// generator guarantees and AddEdge checks.
//
// Sampling model: a stack-trace sample is a random walk from an entry node.
// At node v the walk stops (v's own code is on-CPU) with probability
// self(v)/subtree(v) and descends edge e with probability
// weight(e)*subtree(child)/subtree(v), where
//   subtree(v) = self(v) + Σ_e weight(e) * subtree(child_e).
// Under this model the probability that subroutine u appears anywhere in a
// sample — exactly the paper's gCPU — has the closed form computed by
// ReachProbabilities(), which lets the fleet simulator synthesize sample
// counts without materializing billions of stack walks.
//
// Self costs are mutable (mutable_node) so the fleet simulator can apply its
// per-tick costs: base cost times event factor times seasonal mix.
#ifndef FBDETECT_SRC_PROFILING_CALL_GRAPH_H_
#define FBDETECT_SRC_PROFILING_CALL_GRAPH_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/random.h"

namespace fbdetect {

using NodeId = int32_t;
inline constexpr NodeId kInvalidNode = -1;

struct Subroutine {
  std::string name;
  std::string class_name;  // Enclosing class; cost-shift domain (§5.4).
  double self_cost = 0.0;  // Expected on-CPU weight of the node's own code.
};

struct CallEdge {
  NodeId callee = kInvalidNode;
  double weight = 1.0;  // Relative call frequency.
};

class CallGraph {
 public:
  // Adds a subroutine and returns its id.
  NodeId AddNode(Subroutine subroutine);

  // Adds a call edge; FBD_CHECKs that it does not create a cycle.
  void AddEdge(NodeId caller, NodeId callee, double weight);

  size_t node_count() const { return nodes_.size(); }
  const Subroutine& node(NodeId id) const { return nodes_[static_cast<size_t>(id)]; }
  Subroutine& mutable_node(NodeId id) { dirty_ = true; return nodes_[static_cast<size_t>(id)]; }
  const std::vector<CallEdge>& edges(NodeId id) const { return edges_[static_cast<size_t>(id)]; }

  // Id by subroutine name; kInvalidNode when absent.
  NodeId FindByName(const std::string& name) const;

  // Direct callers of a node.
  std::vector<NodeId> CallersOf(NodeId id) const;

  // All nodes sharing the given class name.
  std::vector<NodeId> NodesInClass(const std::string& class_name) const;

  // subtree(v) per the sampling model; recomputed lazily after mutations.
  const std::vector<double>& SubtreeCosts() const;

  // P(node appears in a stack-trace sample) for every node — the exact gCPU
  // under the sampling model.
  std::vector<double> ReachProbabilities() const;

  // Total expected cost (Σ subtree over roots); the normalizer for sampling.
  double TotalCost() const;

 private:
  void Recompute() const;

  std::vector<Subroutine> nodes_;
  std::vector<std::vector<CallEdge>> edges_;
  std::unordered_map<std::string, NodeId> by_name_;

  mutable bool dirty_ = true;
  mutable std::vector<double> subtree_;
  mutable std::vector<NodeId> roots_;
  mutable std::vector<int> in_degree_;
};

struct RandomCallGraphOptions {
  int num_subroutines = 1000;  // k in §2's analysis.
  int num_classes = 50;
  int max_depth = 8;           // Layers in the generated DAG.
  double cost_skew = 1.0;      // Pareto-ish skew of self costs (1 = mild).
};

// Generates a layered random DAG with skewed self costs, mimicking the
// paper's observation that non-trivial subroutines have a median gCPU of
// ~0.0083% (most cost concentrated in few subroutines, long tail of small
// ones).
CallGraph GenerateRandomCallGraph(const RandomCallGraphOptions& options, Rng& rng);

}  // namespace fbdetect

#endif  // FBDETECT_SRC_PROFILING_CALL_GRAPH_H_
