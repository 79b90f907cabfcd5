// Cost-shift detector (§5.4).
//
// A subroutine-level regression may be an artifact of refactoring that moved
// code (and hence cost) from one subroutine to another without changing any
// higher-level total. The detector examines "cost domains" — groups of
// subroutines within which a shift plausibly occurred — and filters the
// regression when a domain's total cost barely moved while the regressed
// member's cost jumped.
//
// Built-in domains (each a CostDomainDetector):
//  * upstream callers — a caller's gCPU already includes the regressed
//    subroutine's cost, so a pure shift among its callees leaves it flat;
//  * enclosing class — sum of class members' gCPU;
//  * metadata prefix — subroutines sharing a SetFrameMetadata prefix;
//  * endpoint prefix — endpoints with a common name prefix;
//    both prefixes end before the name's last '/' and match whole '/'
//    segments, so "api/v1/a" and "api/v1/b" share a domain and "api/v10/x"
//    is not in it;
//  * commit — all subroutines modified by one code commit.
// Users can register custom detectors.
//
// Per-domain decision (§5.4's three checks):
//  1. domain absent before the regression (new subroutine) -> not a shift;
//  2. domain cost >> regression delta (over 50x) -> domain excluded
//     (its seasonal wiggle would swamp the effect);
//  3. domain delta negligible vs regression delta (under 25%) -> the
//     regression IS a shift within this domain -> filter it.
#ifndef FBDETECT_SRC_CORE_COST_SHIFT_H_
#define FBDETECT_SRC_CORE_COST_SHIFT_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/code_info.h"
#include "src/core/regression.h"
#include "src/core/workload_config.h"
#include "src/fleet/change_log.h"
#include "src/tsdb/database.h"

namespace fbdetect {

// One cost domain: a name plus the member metrics whose series sum to the
// domain's cost.
struct CostDomain {
  std::string name;
  std::vector<MetricId> members;
};

// Produces the cost domains relevant to one regression.
class CostDomainDetector {
 public:
  virtual ~CostDomainDetector() = default;
  virtual std::string name() const = 0;
  virtual std::vector<CostDomain> DomainsFor(const Regression& regression) const = 0;
};

struct CostShiftVerdict {
  bool is_cost_shift = false;
  std::string domain;  // The domain that explained the shift, when any.
};

class CostShiftDetector {
 public:
  explicit CostShiftDetector(const TimeSeriesDatabase* db);

  // Registers a domain detector (takes ownership).
  void AddDomainDetector(std::unique_ptr<CostDomainDetector> detector);

  // Convenience: registers the built-in detectors that apply given the
  // available context (callers/class need `code_info`; commit domains need
  // `change_log`). Pointers may be null; they must outlive the detector.
  // Commit domains take the commits in `commit_lookback` before the change,
  // the same §5.6 window root-cause analysis searches
  // (RootCauseConfig::lookback).
  void AddDefaultDetectors(const CodeInfoProvider* code_info, const ChangeLog* change_log,
                           Duration commit_lookback);

  CostShiftVerdict Evaluate(const Regression& regression) const;

 private:
  const TimeSeriesDatabase* db_;
  std::vector<std::unique_ptr<CostDomainDetector>> detectors_;
};

// ---- Built-in domain detectors (exposed for tests) ----

class CallerDomainDetector : public CostDomainDetector {
 public:
  explicit CallerDomainDetector(const CodeInfoProvider* code_info) : code_info_(code_info) {}
  std::string name() const override { return "upstream_caller"; }
  std::vector<CostDomain> DomainsFor(const Regression& regression) const override;

 private:
  const CodeInfoProvider* code_info_;
};

class ClassDomainDetector : public CostDomainDetector {
 public:
  explicit ClassDomainDetector(const CodeInfoProvider* code_info) : code_info_(code_info) {}
  std::string name() const override { return "enclosing_class"; }
  std::vector<CostDomain> DomainsFor(const Regression& regression) const override;

 private:
  const CodeInfoProvider* code_info_;
};

class MetadataPrefixDomainDetector : public CostDomainDetector {
 public:
  explicit MetadataPrefixDomainDetector(const TimeSeriesDatabase* db) : db_(db) {}
  std::string name() const override { return "metadata_prefix"; }
  std::vector<CostDomain> DomainsFor(const Regression& regression) const override;

 private:
  const TimeSeriesDatabase* db_;
};

class EndpointPrefixDomainDetector : public CostDomainDetector {
 public:
  explicit EndpointPrefixDomainDetector(const TimeSeriesDatabase* db) : db_(db) {}
  std::string name() const override { return "endpoint_prefix"; }
  std::vector<CostDomain> DomainsFor(const Regression& regression) const override;

 private:
  const TimeSeriesDatabase* db_;
};

class CommitDomainDetector : public CostDomainDetector {
 public:
  CommitDomainDetector(const ChangeLog* change_log, Duration lookback)
      : change_log_(change_log), lookback_(lookback) {}
  std::string name() const override { return "commit"; }
  std::vector<CostDomain> DomainsFor(const Regression& regression) const override;

 private:
  const ChangeLog* change_log_;
  Duration lookback_;
};

}  // namespace fbdetect

#endif  // FBDETECT_SRC_CORE_COST_SHIFT_H_
