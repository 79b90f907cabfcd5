#include <gtest/gtest.h>

#include "src/core/root_cause.h"
#include "src/fleet/change_log.h"

namespace fbdetect {
namespace {

// ---------------------------------------------------------------------------
// Table 2: the paper's worked gCPU-attribution example, reproduced exactly.
// ---------------------------------------------------------------------------

std::vector<AttributedSample> Table2Samples() {
  return {
      {{"A", "B", "C"}, 0.01, 0.02},
      {{"B", "E", "F"}, 0.02, 0.03},
      {{"D", "B", "C"}, 0.02, 0.02},
      {{"B", "E", "D"}, 0.04, 0.06},
      {{"G", "B", "D"}, 0.00, 0.01},  // Did not exist before.
  };
}

TEST(GcpuAttributionTest, PaperTable2Example) {
  // Change modifies A and E. R = 0.14 - 0.09 = 0.05; L = 0.11 - 0.07 = 0.04;
  // fraction = 80%.
  const AttributionResult result = GcpuAttribution(Table2Samples(), "B", {"A", "E"});
  EXPECT_NEAR(result.regression_magnitude, 0.05, 1e-12);
  EXPECT_NEAR(result.attributed_magnitude, 0.04, 1e-12);
  EXPECT_NEAR(result.fraction, 0.80, 1e-9);
}

TEST(GcpuAttributionTest, UnrelatedChangeGetsZero) {
  const AttributionResult result = GcpuAttribution(Table2Samples(), "B", {"Z"});
  EXPECT_NEAR(result.fraction, 0.0, 1e-12);
}

TEST(GcpuAttributionTest, ChangeTouchingRegressedItselfGetsFullFraction) {
  const AttributionResult result = GcpuAttribution(Table2Samples(), "B", {"B"});
  EXPECT_NEAR(result.fraction, 1.0, 1e-9);
}

TEST(GcpuAttributionTest, SamplesWithoutRegressedSubroutineIgnored) {
  std::vector<AttributedSample> samples = Table2Samples();
  samples.push_back({{"X", "Y"}, 0.10, 0.90});  // No B: must not affect R.
  const AttributionResult result = GcpuAttribution(samples, "B", {"A", "E"});
  EXPECT_NEAR(result.fraction, 0.80, 1e-9);
}

TEST(GcpuAttributionTest, EmptyInputsSafe) {
  const AttributionResult result = GcpuAttribution({}, "B", {"A"});
  EXPECT_EQ(result.fraction, 0.0);
  EXPECT_EQ(result.regression_magnitude, 0.0);
}

// ---------------------------------------------------------------------------
// RootCauseAnalyzer.
// ---------------------------------------------------------------------------

class FakeCodeInfo : public CodeInfoProvider {
 public:
  std::vector<std::string> CallersOf(const std::string&) const override { return {}; }
  std::string ClassOf(const std::string& subroutine) const override {
    return subroutine.substr(0, 1);  // Class = first letter.
  }
  std::vector<std::string> ClassMembers(const std::string&) const override { return {}; }
  bool IsDescendant(const std::string& ancestor, const std::string& descendant) const override {
    // "parent" invokes "child_*".
    return ancestor == "parent" && descendant.rfind("child", 0) == 0;
  }
};

Regression RegressionIn(const std::string& subroutine, TimePoint change_time) {
  Regression regression;
  regression.metric = {"svc", MetricKind::kGcpu, subroutine, ""};
  regression.change_time = change_time;
  regression.detected_at = change_time + Hours(4);
  regression.delta = 0.01;
  return regression;
}

TEST(RootCauseAnalyzerTest, RanksDirectCulpritFirst) {
  ChangeLog log;
  Commit noise;
  noise.service = "svc";
  noise.time = Hours(9);
  noise.title = "Unrelated tweak";
  noise.description = "Changes logging configuration.";
  noise.touched_subroutines = {"logging_util"};
  log.Add(noise);
  Commit culprit;
  culprit.service = "svc";
  culprit.time = Hours(10) - Minutes(30);
  culprit.title = "Add validation to parent";
  culprit.description = "loosening constraints for parent";
  culprit.touched_subroutines = {"parent"};
  const int64_t culprit_id = log.Add(culprit);

  FakeCodeInfo code_info;
  RootCauseAnalyzer analyzer(&log, &code_info, RootCauseConfig{});
  Regression regression = RegressionIn("parent", Hours(10));
  analyzer.Analyze(regression);
  ASSERT_FALSE(regression.root_causes.empty());
  EXPECT_EQ(regression.root_causes[0].commit_id, culprit_id);
  EXPECT_DOUBLE_EQ(regression.root_causes[0].structural_score, 1.0);
}

TEST(RootCauseAnalyzerTest, DownstreamChangeRankedAboveUnrelated) {
  ChangeLog log;
  Commit unrelated;
  unrelated.service = "svc";
  unrelated.time = Hours(9);
  unrelated.title = "Style cleanup";
  unrelated.touched_subroutines = {"formatting"};
  const int64_t unrelated_id = log.Add(unrelated);
  Commit downstream;
  downstream.service = "svc";
  downstream.time = Hours(9) + Minutes(30);
  downstream.title = "Optimize child_worker";
  downstream.touched_subroutines = {"child_worker"};
  const int64_t downstream_id = log.Add(downstream);

  FakeCodeInfo code_info;
  RootCauseAnalyzer analyzer(&log, &code_info, RootCauseConfig{});
  // Regression in `parent`, whose descendants are child_*.
  Regression regression = RegressionIn("parent", Hours(10));
  analyzer.Analyze(regression);
  ASSERT_FALSE(regression.root_causes.empty());
  EXPECT_EQ(regression.root_causes[0].commit_id, downstream_id);
  EXPECT_NE(regression.root_causes[0].commit_id, unrelated_id);
}

TEST(RootCauseAnalyzerTest, SuggestsNothingWithoutConfidentCandidate) {
  ChangeLog log;
  Commit unrelated;
  unrelated.service = "svc";
  unrelated.time = Hours(5);  // Far before the change.
  unrelated.title = "completely different thing";
  unrelated.touched_subroutines = {"elsewhere"};
  log.Add(unrelated);

  FakeCodeInfo code_info;
  RootCauseConfig config;
  config.min_confidence = 0.5;
  RootCauseAnalyzer analyzer(&log, &code_info, config);
  Regression regression = RegressionIn("parent", Hours(10));
  analyzer.Analyze(regression);
  EXPECT_TRUE(regression.root_causes.empty());
}

TEST(RootCauseAnalyzerTest, TextSimilarityRescuesIndirectCulprit) {
  // §5.6's example: no change touches `foo` directly, but one change says
  // "loosening constraints for foo" — text similarity should rank it first.
  ChangeLog log;
  Commit other;
  other.service = "svc";
  other.time = Hours(9);
  other.title = "Bump dependency";
  other.description = "Routine version bump.";
  other.touched_subroutines = {"deps"};
  log.Add(other);
  Commit textual;
  textual.service = "svc";
  textual.time = Hours(9);
  textual.title = "Loosening constraints for foo";
  textual.description = "Allows more requests to hit foo paths.";
  textual.touched_subroutines = {"constraint_checker"};
  const int64_t textual_id = log.Add(textual);

  RootCauseConfig config;
  config.min_confidence = 0.05;
  RootCauseAnalyzer analyzer(&log, nullptr, config);
  Regression regression = RegressionIn("foo", Hours(10));
  analyzer.Analyze(regression);
  ASSERT_FALSE(regression.root_causes.empty());
  EXPECT_EQ(regression.root_causes[0].commit_id, textual_id);
}

TEST(RootCauseAnalyzerTest, QuickCandidatesMatchTouchedSubroutine) {
  ChangeLog log;
  Commit touching;
  touching.service = "svc";
  touching.time = Hours(10) - Minutes(10);
  touching.touched_subroutines = {"target"};
  const int64_t touching_id = log.Add(touching);
  Commit elsewhere;
  elsewhere.service = "svc";
  elsewhere.time = Hours(10) - Minutes(5);
  elsewhere.touched_subroutines = {"other"};
  log.Add(elsewhere);

  RootCauseAnalyzer analyzer(&log, nullptr, RootCauseConfig{});
  const Regression regression = RegressionIn("target", Hours(10));
  const std::vector<int64_t> candidates = analyzer.QuickCandidates(regression);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0], touching_id);
}

TEST(RootCauseAnalyzerTest, AtMostThreeSuggestions) {
  ChangeLog log;
  for (int i = 0; i < 6; ++i) {
    Commit commit;
    commit.service = "svc";
    commit.time = Hours(9) + Minutes(i);
    commit.title = "Touch hot_path variant " + std::to_string(i);
    commit.touched_subroutines = {"hot_path"};
    log.Add(commit);
  }
  RootCauseAnalyzer analyzer(&log, nullptr, RootCauseConfig{});
  Regression regression = RegressionIn("hot_path", Hours(10));
  analyzer.Analyze(regression);
  EXPECT_EQ(regression.root_causes.size(), 3u);
}

TEST(RootCauseAnalyzerTest, CommitsAfterChangePointIgnored) {
  ChangeLog log;
  Commit late;
  late.service = "svc";
  late.time = Hours(11);  // After the regression started.
  late.touched_subroutines = {"target"};
  log.Add(late);
  RootCauseAnalyzer analyzer(&log, nullptr, RootCauseConfig{});
  Regression regression = RegressionIn("target", Hours(10));
  analyzer.Analyze(regression);
  EXPECT_TRUE(regression.root_causes.empty());
}

}  // namespace
}  // namespace fbdetect
