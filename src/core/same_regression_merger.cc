#include "src/core/same_regression_merger.h"

#include <cstdlib>

namespace fbdetect {

bool SameRegressionMerger::Admit(const Regression& regression,
                                 const std::string& metric_string) {
  std::vector<TimePoint>& times = seen_[metric_string];
  for (TimePoint t : times) {
    if (std::llabs(static_cast<long long>(t - regression.change_time)) <=
        static_cast<long long>(tolerance_)) {
      return false;
    }
  }
  times.push_back(regression.change_time);
  return true;
}

std::vector<FunnelCandidate> SameRegressionMerger::Filter(
    std::vector<FunnelCandidate> candidates) {
  std::vector<FunnelCandidate> admitted;
  for (FunnelCandidate& candidate : candidates) {
    if (Admit(candidate.regression, candidate.fingerprint.metric_string)) {
      admitted.push_back(std::move(candidate));
    }
  }
  return admitted;
}

}  // namespace fbdetect
