#include "src/profiling/call_graph.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace fbdetect {

NodeId CallGraph::AddNode(Subroutine subroutine) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  by_name_[subroutine.name] = id;
  nodes_.push_back(std::move(subroutine));
  edges_.emplace_back();
  dirty_ = true;
  return id;
}

void CallGraph::AddEdge(NodeId caller, NodeId callee, double weight) {
  FBD_CHECK(caller >= 0 && static_cast<size_t>(caller) < nodes_.size());
  FBD_CHECK(callee >= 0 && static_cast<size_t>(callee) < nodes_.size());
  FBD_CHECK(weight > 0.0);
  // DAG check: callee must not (transitively) call caller. DFS from callee.
  std::vector<NodeId> stack = {callee};
  std::vector<bool> visited(nodes_.size(), false);
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    FBD_CHECK(v != caller);  // Cycle.
    if (visited[static_cast<size_t>(v)]) {
      continue;
    }
    visited[static_cast<size_t>(v)] = true;
    for (const CallEdge& e : edges_[static_cast<size_t>(v)]) {
      stack.push_back(e.callee);
    }
  }
  edges_[static_cast<size_t>(caller)].push_back({callee, weight});
  dirty_ = true;
}

NodeId CallGraph::FindByName(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? kInvalidNode : it->second;
}

std::vector<NodeId> CallGraph::CallersOf(NodeId id) const {
  std::vector<NodeId> callers;
  for (size_t v = 0; v < edges_.size(); ++v) {
    for (const CallEdge& e : edges_[v]) {
      if (e.callee == id) {
        callers.push_back(static_cast<NodeId>(v));
        break;
      }
    }
  }
  return callers;
}

std::vector<NodeId> CallGraph::NodesInClass(const std::string& class_name) const {
  std::vector<NodeId> members;
  for (size_t v = 0; v < nodes_.size(); ++v) {
    if (nodes_[v].class_name == class_name) {
      members.push_back(static_cast<NodeId>(v));
    }
  }
  return members;
}

void CallGraph::Recompute() const {
  const size_t n = nodes_.size();
  subtree_.assign(n, 0.0);
  in_degree_.assign(n, 0);
  for (size_t v = 0; v < n; ++v) {
    for (const CallEdge& e : edges_[v]) {
      ++in_degree_[static_cast<size_t>(e.callee)];
    }
  }
  roots_.clear();
  for (size_t v = 0; v < n; ++v) {
    if (in_degree_[v] == 0) {
      roots_.push_back(static_cast<NodeId>(v));
    }
  }
  // subtree in reverse topological order (iterative post-order via Kahn on
  // the reversed relation: process nodes whose children are all done).
  std::vector<int> pending_children(n, 0);
  for (size_t v = 0; v < n; ++v) {
    pending_children[v] = static_cast<int>(edges_[v].size());
  }
  std::vector<NodeId> ready;
  for (size_t v = 0; v < n; ++v) {
    if (pending_children[v] == 0) {
      ready.push_back(static_cast<NodeId>(v));
    }
  }
  // Count how many times each node appears as a callee, so we can decrement
  // parents when a child finishes.
  std::vector<std::vector<NodeId>> parents(n);
  for (size_t v = 0; v < n; ++v) {
    for (const CallEdge& e : edges_[v]) {
      parents[static_cast<size_t>(e.callee)].push_back(static_cast<NodeId>(v));
    }
  }
  size_t processed = 0;
  while (!ready.empty()) {
    const NodeId v = ready.back();
    ready.pop_back();
    ++processed;
    double total = nodes_[static_cast<size_t>(v)].self_cost;
    for (const CallEdge& e : edges_[static_cast<size_t>(v)]) {
      total += e.weight * subtree_[static_cast<size_t>(e.callee)];
    }
    subtree_[static_cast<size_t>(v)] = total;
    for (NodeId p : parents[static_cast<size_t>(v)]) {
      if (--pending_children[static_cast<size_t>(p)] == 0) {
        ready.push_back(p);
      }
    }
  }
  FBD_CHECK(processed == n);  // Would fail on a cycle; AddEdge prevents it.
  dirty_ = false;
}

const std::vector<double>& CallGraph::SubtreeCosts() const {
  if (dirty_) {
    Recompute();
  }
  return subtree_;
}

std::vector<double> CallGraph::ReachProbabilities() const {
  const std::vector<double>& subtree = SubtreeCosts();
  const size_t n = nodes_.size();
  std::vector<double> reach(n, 0.0);
  double total = 0.0;
  for (NodeId r : roots_) {
    total += subtree[static_cast<size_t>(r)];
  }
  if (total <= 0.0) {
    return reach;
  }
  for (NodeId r : roots_) {
    reach[static_cast<size_t>(r)] = subtree[static_cast<size_t>(r)] / total;
  }
  // Propagate in topological order (parents before children). Build a
  // topological order via Kahn's algorithm on in-degrees.
  std::vector<int> indeg = in_degree_;
  std::vector<NodeId> queue = roots_;
  size_t head = 0;
  while (head < queue.size()) {
    const NodeId v = queue[head++];
    const double sub_v = subtree[static_cast<size_t>(v)];
    if (sub_v > 0.0) {
      for (const CallEdge& e : edges_[static_cast<size_t>(v)]) {
        const double descend =
            e.weight * subtree[static_cast<size_t>(e.callee)] / sub_v;
        reach[static_cast<size_t>(e.callee)] += reach[static_cast<size_t>(v)] * descend;
        if (--indeg[static_cast<size_t>(e.callee)] == 0) {
          queue.push_back(e.callee);
        }
      }
    } else {
      for (const CallEdge& e : edges_[static_cast<size_t>(v)]) {
        if (--indeg[static_cast<size_t>(e.callee)] == 0) {
          queue.push_back(e.callee);
        }
      }
    }
  }
  // Guard against rounding: probabilities stay in [0, 1].
  for (double& p : reach) {
    p = std::clamp(p, 0.0, 1.0);
  }
  return reach;
}

double CallGraph::TotalCost() const {
  const std::vector<double>& subtree = SubtreeCosts();
  double total = 0.0;
  for (NodeId r : roots_) {
    total += subtree[static_cast<size_t>(r)];
  }
  return total;
}

CallGraph GenerateRandomCallGraph(const RandomCallGraphOptions& options, Rng& rng) {
  FBD_CHECK(options.num_subroutines >= 1);
  FBD_CHECK(options.max_depth >= 1);
  CallGraph graph;
  const int layers = options.max_depth;
  // Assign nodes to layers; layer 0 holds a few entry points.
  std::vector<std::vector<NodeId>> layer_nodes(static_cast<size_t>(layers));
  const int num_classes = std::max(1, options.num_classes);
  for (int i = 0; i < options.num_subroutines; ++i) {
    Subroutine node;
    node.name = "sub_" + std::to_string(i);
    node.class_name = "Class" + std::to_string(i % num_classes);
    // Pareto-like skew: few heavy subroutines, long tail of tiny ones.
    const double u = rng.NextDouble();
    node.self_cost = std::pow(1.0 - u * 0.9999, options.cost_skew);
    const NodeId id = graph.AddNode(std::move(node));
    int layer = 0;
    if (i >= 3) {  // Keep at least a few entries in layer 0.
      layer = 1 + static_cast<int>(rng.NextUint64(static_cast<uint64_t>(layers - 1)));
    }
    layer_nodes[static_cast<size_t>(layer)].push_back(id);
  }
  // Wire each non-root node to 1-3 callers from strictly earlier layers.
  for (int layer = 1; layer < layers; ++layer) {
    for (NodeId id : layer_nodes[static_cast<size_t>(layer)]) {
      const int num_callers = 1 + static_cast<int>(rng.NextUint64(3));
      for (int c = 0; c < num_callers; ++c) {
        const int caller_layer = static_cast<int>(rng.NextUint64(static_cast<uint64_t>(layer)));
        const auto& candidates = layer_nodes[static_cast<size_t>(caller_layer)];
        if (candidates.empty()) {
          continue;
        }
        const NodeId caller = candidates[rng.NextUint64(candidates.size())];
        graph.AddEdge(caller, id, rng.Uniform(0.2, 1.0));
      }
    }
  }
  return graph;
}

}  // namespace fbdetect
