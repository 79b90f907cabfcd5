// Code-structure information consumed by the cost-shift detector and
// root-cause analysis: callers, enclosing classes, and descendant relations
// of subroutines. Production FBDetect derives this from stack
// traces and source analysis; here an adapter over the profiling CallGraph
// provides it (and tests can supply hand-built fakes).
#ifndef FBDETECT_SRC_CORE_CODE_INFO_H_
#define FBDETECT_SRC_CORE_CODE_INFO_H_

#include <string>
#include <vector>

#include "src/profiling/call_graph.h"

namespace fbdetect {

class CodeInfoProvider {
 public:
  virtual ~CodeInfoProvider() = default;

  virtual std::vector<std::string> CallersOf(const std::string& subroutine) const = 0;
  virtual std::string ClassOf(const std::string& subroutine) const = 0;
  virtual std::vector<std::string> ClassMembers(const std::string& class_name) const = 0;
  // True when `descendant` is transitively invoked by `ancestor`.
  virtual bool IsDescendant(const std::string& ancestor, const std::string& descendant) const = 0;
};

// Adapter over a CallGraph. The graph must outlive the adapter.
class CallGraphCodeInfo : public CodeInfoProvider {
 public:
  explicit CallGraphCodeInfo(const CallGraph* graph) : graph_(graph) {}

  std::vector<std::string> CallersOf(const std::string& subroutine) const override;
  std::string ClassOf(const std::string& subroutine) const override;
  std::vector<std::string> ClassMembers(const std::string& class_name) const override;
  bool IsDescendant(const std::string& ancestor, const std::string& descendant) const override;

 private:
  const CallGraph* graph_;
};

}  // namespace fbdetect

#endif  // FBDETECT_SRC_CORE_CODE_INFO_H_
