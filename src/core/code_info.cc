#include "src/core/code_info.h"

namespace fbdetect {

std::vector<std::string> CallGraphCodeInfo::CallersOf(const std::string& subroutine) const {
  std::vector<std::string> names;
  const NodeId id = graph_->FindByName(subroutine);
  if (id == kInvalidNode) {
    return names;
  }
  for (NodeId caller : graph_->CallersOf(id)) {
    names.push_back(graph_->node(caller).name);
  }
  return names;
}

std::string CallGraphCodeInfo::ClassOf(const std::string& subroutine) const {
  const NodeId id = graph_->FindByName(subroutine);
  return id == kInvalidNode ? std::string() : graph_->node(id).class_name;
}

std::vector<std::string> CallGraphCodeInfo::ClassMembers(const std::string& class_name) const {
  std::vector<std::string> names;
  for (NodeId id : graph_->NodesInClass(class_name)) {
    names.push_back(graph_->node(id).name);
  }
  return names;
}

bool CallGraphCodeInfo::IsDescendant(const std::string& ancestor,
                                     const std::string& descendant) const {
  const NodeId from = graph_->FindByName(ancestor);
  const NodeId target = graph_->FindByName(descendant);
  if (from == kInvalidNode || target == kInvalidNode) {
    return false;
  }
  std::vector<NodeId> stack = {from};
  std::vector<bool> visited(graph_->node_count(), false);
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    if (visited[static_cast<size_t>(v)]) {
      continue;
    }
    visited[static_cast<size_t>(v)] = true;
    for (const CallEdge& edge : graph_->edges(v)) {
      if (edge.callee == target) {
        return true;
      }
      stack.push_back(edge.callee);
    }
  }
  return false;
}

}  // namespace fbdetect
