#include "src/core/cost_shift.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "src/common/check.h"
#include "src/common/strings.h"
#include "src/stats/descriptive.h"

namespace fbdetect {
namespace {

// Check 2: exclude domains whose cost exceeds this multiple of the
// regression delta.
constexpr double kLargeDomainRatio = 50.0;
// Check 3: a domain delta below this fraction of the regression delta is
// negligible.
constexpr double kNegligibleRatio = 0.25;
// A domain needs this many points on each side of the change to be measured.
constexpr size_t kMinWindowPoints = 4;

// The part of a '/'-separated name before its last '/' (or the whole name).
std::string PathPrefix(const std::string& name) {
  const size_t slash = name.rfind('/');
  return slash == std::string::npos ? name : name.substr(0, slash);
}

// A prefix domain holds the names equal to the prefix or below it, by whole
// path segments: "api/v1" holds "api/v1/a" but not "api/v10/x".
bool InPrefixDomain(std::string_view name, std::string_view prefix) {
  return StartsWith(name, prefix) &&
         (name.size() == prefix.size() || name[prefix.size()] == '/');
}

// Sums the member series around the regression's change point, returning the
// domain's mean cost before/after and whether every member existed before the
// change. Sampling is aligned on the regression's analysis timestamps plus an
// equally long pre-change slice.
struct DomainWindow {
  bool any_data = false;
  bool existed_before = false;
  double mean_before = 0.0;
  double mean_after = 0.0;
};

DomainWindow MeasureDomain(const TimeSeriesDatabase& db, const CostDomain& domain,
                           const Regression& regression) {
  DomainWindow window;
  const TimePoint change = regression.change_time;
  // Compare an equally long window on each side of the change point.
  TimePoint post_end = regression.detected_at;
  const Duration post_span = post_end - change;
  if (post_span <= 0) {
    return window;
  }
  const TimePoint pre_begin = change - post_span;

  // Members are read the way the scan reads a series: the raw tail in place
  // when it covers [pre_begin, inf), else the overlapping sealed chunks
  // decoded into this scratch. Evaluate runs on funnel-pool workers, so the
  // scratch is per thread; each member is summed before the next is read.
  thread_local TimeSeries scratch;
  double before_sum = 0.0;
  double after_sum = 0.0;
  size_t before_points = 0;
  size_t after_points = 0;
  bool all_existed_before = true;
  bool any_series = false;
  for (const MetricId& member : domain.members) {
    Status status;
    const TimeSeries* series = db.SeriesForScan(member, pre_begin, scratch, &status);
    if (series == nullptr) {
      continue;  // Absent, or sealed history that failed to decode.
    }
    any_series = true;
    // Zero-copy: sum directly over spans into the series storage instead of
    // materializing ValuesBetween copies (bit-identical sums — same values,
    // same order).
    const auto [before_first, before_last] = series->SliceIndices(pre_begin, change);
    const auto [after_first, after_last] = series->SliceIndices(change, post_end);
    const std::span<const double> before =
        series->value_span().subspan(before_first, before_last - before_first);
    const std::span<const double> after =
        series->value_span().subspan(after_first, after_last - after_first);
    if (before.empty()) {
      all_existed_before = false;
    }
    before_sum += Sum(before);
    before_points = std::max(before_points, before.size());
    after_sum += Sum(after);
    after_points = std::max(after_points, after.size());
  }
  if (!any_series || before_points < kMinWindowPoints || after_points < kMinWindowPoints) {
    return window;
  }
  window.any_data = true;
  window.existed_before = all_existed_before;
  window.mean_before = before_sum / static_cast<double>(before_points);
  window.mean_after = after_sum / static_cast<double>(after_points);
  return window;
}

}  // namespace

CostShiftDetector::CostShiftDetector(const TimeSeriesDatabase* db) : db_(db) {
  FBD_CHECK(db_ != nullptr);
}

void CostShiftDetector::AddDomainDetector(std::unique_ptr<CostDomainDetector> detector) {
  detectors_.push_back(std::move(detector));
}

void CostShiftDetector::AddDefaultDetectors(const CodeInfoProvider* code_info,
                                            const ChangeLog* change_log,
                                            Duration commit_lookback) {
  if (code_info != nullptr) {
    AddDomainDetector(std::make_unique<CallerDomainDetector>(code_info));
    AddDomainDetector(std::make_unique<ClassDomainDetector>(code_info));
  }
  AddDomainDetector(std::make_unique<MetadataPrefixDomainDetector>(db_));
  AddDomainDetector(std::make_unique<EndpointPrefixDomainDetector>(db_));
  if (change_log != nullptr) {
    AddDomainDetector(std::make_unique<CommitDomainDetector>(change_log, commit_lookback));
  }
}

CostShiftVerdict CostShiftDetector::Evaluate(const Regression& regression) const {
  CostShiftVerdict verdict;
  const double regression_delta = std::fabs(regression.delta);
  if (regression_delta <= 0.0) {
    return verdict;
  }
  for (const auto& detector : detectors_) {
    for (const CostDomain& domain : detector->DomainsFor(regression)) {
      const DomainWindow window = MeasureDomain(*db_, domain, regression);
      if (!window.any_data) {
        continue;
      }
      // Check 1: a domain that did not exist before the regression (e.g. a
      // new subroutine) cannot host a shift.
      if (!window.existed_before) {
        continue;
      }
      // Check 2: a domain far larger than the regression is excluded — its
      // own variation would mask the shift signal.
      if (window.mean_before > kLargeDomainRatio * regression_delta) {
        continue;
      }
      // Check 3: domain total barely moved while the member jumped -> shift.
      const double domain_delta = std::fabs(window.mean_after - window.mean_before);
      if (domain_delta < kNegligibleRatio * regression_delta) {
        verdict.is_cost_shift = true;
        verdict.domain = detector->name() + ":" + domain.name;
        return verdict;
      }
    }
  }
  return verdict;
}

std::vector<CostDomain> CallerDomainDetector::DomainsFor(const Regression& regression) const {
  std::vector<CostDomain> domains;
  if (regression.metric.kind != MetricKind::kGcpu) {
    return domains;
  }
  // The domain is the UNION of the regressed subroutine's direct callers:
  // every stack sample containing the subroutine also contains exactly one
  // of them, so the summed caller gCPU transitively includes all of the
  // subroutine's cost. A single caller must not be its own domain — a caller
  // that rarely reaches the subroutine stays flat during a real regression
  // and would wrongly vote "cost shift".
  const std::vector<std::string> callers = code_info_->CallersOf(regression.metric.entity);
  if (callers.empty()) {
    return domains;
  }
  CostDomain domain;
  domain.name = "callers_of/" + regression.metric.entity;
  for (const std::string& caller : callers) {
    MetricId member = regression.metric;
    member.entity = caller;
    domain.members.push_back(std::move(member));
  }
  domains.push_back(std::move(domain));
  return domains;
}

std::vector<CostDomain> ClassDomainDetector::DomainsFor(const Regression& regression) const {
  std::vector<CostDomain> domains;
  if (regression.metric.kind != MetricKind::kGcpu) {
    return domains;
  }
  const std::string class_name = code_info_->ClassOf(regression.metric.entity);
  if (class_name.empty()) {
    return domains;
  }
  CostDomain domain;
  domain.name = "class/" + class_name;
  for (const std::string& member_name : code_info_->ClassMembers(class_name)) {
    MetricId member = regression.metric;
    member.entity = member_name;
    domain.members.push_back(std::move(member));
  }
  if (domain.members.size() >= 2) {
    domains.push_back(std::move(domain));
  }
  return domains;
}

std::vector<CostDomain> MetadataPrefixDomainDetector::DomainsFor(
    const Regression& regression) const {
  std::vector<CostDomain> domains;
  if (regression.metric.metadata.empty()) {
    return domains;
  }
  const std::string prefix = PathPrefix(regression.metric.metadata);
  CostDomain domain;
  domain.name = "metadata/" + prefix;
  for (const MetricId& id :
       db_->ListMetricsOfKind(regression.metric.service, regression.metric.kind)) {
    if (InPrefixDomain(id.metadata, prefix)) {
      domain.members.push_back(id);
    }
  }
  if (domain.members.size() >= 2) {
    domains.push_back(std::move(domain));
  }
  return domains;
}

std::vector<CostDomain> EndpointPrefixDomainDetector::DomainsFor(
    const Regression& regression) const {
  std::vector<CostDomain> domains;
  if (regression.metric.kind != MetricKind::kEndpointCost || regression.metric.entity.empty()) {
    return domains;
  }
  const std::string prefix = PathPrefix(regression.metric.entity);
  CostDomain domain;
  domain.name = "endpoint/" + prefix;
  for (const MetricId& id :
       db_->ListMetricsOfKind(regression.metric.service, regression.metric.kind)) {
    if (InPrefixDomain(id.entity, prefix)) {
      domain.members.push_back(id);
    }
  }
  if (domain.members.size() >= 2) {
    domains.push_back(std::move(domain));
  }
  return domains;
}

std::vector<CostDomain> CommitDomainDetector::DomainsFor(const Regression& regression) const {
  std::vector<CostDomain> domains;
  if (regression.metric.kind != MetricKind::kGcpu) {
    return domains;
  }
  const std::vector<const Commit*> commits = change_log_->CommitsBetween(
      regression.metric.service, regression.change_time - lookback_, regression.change_time);
  for (const Commit* commit : commits) {
    // Only commits that touch the regressed subroutine (plus others) define a
    // plausible shift domain.
    const auto& touched = commit->touched_subroutines;
    if (touched.size() < 2 ||
        std::find(touched.begin(), touched.end(), regression.metric.entity) == touched.end()) {
      continue;
    }
    CostDomain domain;
    domain.name = "commit/" + std::to_string(commit->id);
    for (const std::string& subroutine : touched) {
      MetricId member = regression.metric;
      member.entity = subroutine;
      domain.members.push_back(std::move(member));
    }
    domains.push_back(std::move(domain));
  }
  return domains;
}

}  // namespace fbdetect
