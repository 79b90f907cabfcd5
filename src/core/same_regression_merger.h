// SameRegressionMerger (Table 3): the same regression keeps re-appearing in
// successive overlapping analysis windows until it ages out of the analysis
// window. This stage drops a regression when one with the same metric and a
// change point within `tolerance` was already admitted by a prior run.
#ifndef FBDETECT_SRC_CORE_SAME_REGRESSION_MERGER_H_
#define FBDETECT_SRC_CORE_SAME_REGRESSION_MERGER_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/fingerprint.h"
#include "src/core/regression.h"

namespace fbdetect {

class SameRegressionMerger {
 public:
  explicit SameRegressionMerger(Duration tolerance) : tolerance_(tolerance) {}

  // Filters a batch, keeping only new regressions, in order; keys on the
  // candidates' cached metric strings.
  std::vector<FunnelCandidate> Filter(std::vector<FunnelCandidate> candidates);

 private:
  // Returns true (and records the regression) when it is NEW; false when it
  // duplicates an already-seen one.
  bool Admit(const Regression& regression, const std::string& metric_string);

  Duration tolerance_;
  // metric-id string -> change times already reported for that metric.
  std::unordered_map<std::string, std::vector<TimePoint>> seen_;
};

}  // namespace fbdetect

#endif  // FBDETECT_SRC_CORE_SAME_REGRESSION_MERGER_H_
