// Tests for SOM, SOMDedup, PairwiseDedup, and the cost-shift detector.
#include <gtest/gtest.h>

#include <stdlib.h>

#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/core/cost_shift.h"
#include "src/core/pairwise_dedup.h"
#include "src/core/root_cause.h"
#include "src/core/som.h"
#include "src/core/som_dedup.h"
#include "src/tsdb/database.h"
#include "tests/batch_writes.h"
#include "tests/stage_helpers.h"

namespace fbdetect {
namespace {

// ---------------------------------------------------------------------------
// SOM.
// ---------------------------------------------------------------------------

class SomGridSizeTest : public ::testing::TestWithParam<std::pair<size_t, int>> {};

TEST_P(SomGridSizeTest, FollowsFourthRootRule) {
  const auto [n, expected] = GetParam();
  EXPECT_EQ(SomGridSize(n), expected);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SomGridSizeTest,
                         ::testing::Values(std::pair<size_t, int>{0, 1},
                                           std::pair<size_t, int>{1, 1},
                                           std::pair<size_t, int>{16, 2},
                                           std::pair<size_t, int>{81, 3},
                                           std::pair<size_t, int>{100, 4},
                                           std::pair<size_t, int>{10000, 10}));

TEST(SomTest, SeparatesTwoBlobs) {
  Rng rng(1);
  std::vector<std::vector<double>> items;
  for (int i = 0; i < 40; ++i) {
    items.push_back({rng.Normal(0.0, 0.1), rng.Normal(0.0, 0.1)});
  }
  for (int i = 0; i < 40; ++i) {
    items.push_back({rng.Normal(5.0, 0.1), rng.Normal(5.0, 0.1)});
  }
  SelfOrganizingMap som(2, 3, 99);
  som.Train(items, {});
  const std::vector<int> assignment = som.Assign(items);
  std::set<int> blob_a(assignment.begin(), assignment.begin() + 40);
  std::set<int> blob_b(assignment.begin() + 40, assignment.end());
  // The two blobs must not share any cell.
  for (int cell : blob_a) {
    EXPECT_EQ(blob_b.count(cell), 0u);
  }
}

TEST(SomTest, IdenticalItemsShareCell) {
  std::vector<std::vector<double>> items(10, std::vector<double>{1.0, 2.0, 3.0});
  SelfOrganizingMap som(3, 2, 5);
  som.Train(items, {});
  const std::vector<int> assignment = som.Assign(items);
  for (int cell : assignment) {
    EXPECT_EQ(cell, assignment[0]);
  }
}

// ---------------------------------------------------------------------------
// SOMDedup.
// ---------------------------------------------------------------------------

// The representatives SOMDedup keeps of `regressions`, serially.
std::vector<Regression> Deduplicate(const SomDedup& dedup, std::vector<Regression> regressions) {
  std::vector<Regression> representatives;
  for (FunnelCandidate& candidate :
       dedup.Deduplicate(Fingerprinted(std::move(regressions)), nullptr)) {
    representatives.push_back(std::move(candidate.regression));
  }
  return representatives;
}

Regression MakeRegression(const std::string& subroutine, double delta, double baseline,
                          const std::vector<double>& analysis,
                          std::vector<int64_t> causes = {}) {
  Regression regression;
  regression.metric = {"svc", MetricKind::kGcpu, subroutine, ""};
  regression.change_time = Hours(10);
  regression.change_index = analysis.size() / 2;
  regression.baseline_mean = baseline;
  regression.regressed_mean = baseline + delta;
  regression.delta = delta;
  regression.relative_delta = baseline > 0.0 ? delta / baseline : 0.0;
  regression.analysis = analysis;
  for (size_t i = 0; i < analysis.size(); ++i) {
    regression.analysis_timestamps.push_back(static_cast<TimePoint>(i) * Minutes(10));
  }
  regression.historical.assign(50, baseline);
  regression.candidate_root_causes = std::move(causes);
  return regression;
}

std::vector<double> StepShape(double base, double delta, size_t n, uint64_t seed,
                              double noise = 0.0005) {
  Rng rng(seed);
  std::vector<double> values;
  for (size_t i = 0; i < n; ++i) {
    values.push_back((i < n / 2 ? base : base + delta) + rng.Normal(0.0, noise));
  }
  return values;
}

TEST(SomDedupTest, MergesSameShapeSameCauseRegressions) {
  // Ten callers of the same regressed subroutine: same change point, same
  // root-cause candidate, near-identical shapes -> expect heavy merging.
  std::vector<Regression> regressions;
  for (int i = 0; i < 10; ++i) {
    regressions.push_back(MakeRegression("caller_" + std::to_string(i), 0.01, 0.05,
                                         StepShape(0.05, 0.01, 48, 100 + i), {7}));
  }
  const SomDedup dedup;
  const std::vector<Regression> representatives = Deduplicate(dedup, regressions);
  EXPECT_LT(representatives.size(), regressions.size() / 2);
  size_t merged_total = 0;
  for (const Regression& representative : representatives) {
    merged_total += representative.merged_count;
  }
  EXPECT_EQ(merged_total, regressions.size());
}

TEST(SomDedupTest, KeepsDistinctRegressionsApart) {
  std::vector<Regression> regressions;
  // Two very different cohorts: tiny gCPU steps vs a big throughput-style one.
  for (int i = 0; i < 5; ++i) {
    regressions.push_back(MakeRegression("sub_a" + std::to_string(i), 0.002, 0.03,
                                         StepShape(0.03, 0.002, 48, 200 + i), {1}));
  }
  Regression big = MakeRegression("sub_huge", 0.5, 0.2, StepShape(0.2, 0.5, 48, 300), {9});
  big.metric.kind = MetricKind::kEndpointCost;
  regressions.push_back(big);
  const SomDedup dedup;
  const std::vector<Regression> representatives = Deduplicate(dedup, regressions);
  bool found_big = false;
  for (const Regression& representative : representatives) {
    if (representative.metric.entity == "sub_huge") {
      found_big = true;
    }
  }
  EXPECT_TRUE(found_big);  // The outlier must survive as its own cluster.
}

TEST(SomDedupTest, RepresentativeHasHighestImportance) {
  // Same cluster shape; one member has a much larger absolute delta.
  std::vector<Regression> regressions;
  for (int i = 0; i < 6; ++i) {
    regressions.push_back(MakeRegression("sub_" + std::to_string(i), 0.01, 0.05,
                                         StepShape(0.05, 0.01, 48, 400), {3}));
  }
  regressions.push_back(MakeRegression("sub_heavy", 0.012, 0.05,
                                       StepShape(0.05, 0.012, 48, 400), {3}));
  const SomDedup dedup;
  const std::vector<Regression> representatives = Deduplicate(dedup, regressions);
  for (const Regression& representative : representatives) {
    if (representative.merged_count > 1) {
      // Within any merged cluster the representative's importance is maximal
      // by construction; sanity-check it is positive.
      EXPECT_GT(representative.importance, 0.0);
    }
  }
}

TEST(SomDedupTest, ImportanceScoreWeights) {
  const SomDedup dedup;
  Regression regression = MakeRegression("sub", 0.01, 0.05, StepShape(0.05, 0.01, 16, 1), {5});
  // Normalized: rel = 1, abs = 1, popularity = 0.05, root cause found = 1.
  const double score =
      dedup.ImportanceScore(regression, std::fabs(regression.delta),
                            std::fabs(regression.relative_delta));
  EXPECT_NEAR(score, 0.2 * 1.0 + 0.6 * 1.0 + 0.1 * 0.95 + 0.1 * 1.0, 1e-9);
}

TEST(SomDedupTest, EmptyAndSingletonInputs) {
  const SomDedup dedup;
  EXPECT_TRUE(Deduplicate(dedup, {}).empty());
  const std::vector<Regression> one =
      Deduplicate(dedup, {MakeRegression("s", 0.01, 0.05, StepShape(0.05, 0.01, 16, 2))});
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].som_cluster, 0);
}

// ---------------------------------------------------------------------------
// PairwiseDedup.
// ---------------------------------------------------------------------------

TEST(PairwiseDedupTest, MergesCorrelatedSimilarlyNamedRegressions) {
  PairwiseDedup dedup;
  Regression first = MakeRegression("TaoClient_fetch_user", 0.01, 0.05,
                                    StepShape(0.05, 0.01, 48, 500, 0.0001));
  // Same shape (same seed => identical noise), closely related name.
  Regression second = MakeRegression("TaoClient_fetch_user_by_id", 0.01, 0.05,
                                     StepShape(0.05, 0.01, 48, 500, 0.0001));
  const std::vector<int> first_new = dedup.Ingest(Fingerprinted({first}));
  EXPECT_EQ(first_new.size(), 1u);
  const std::vector<int> second_new = dedup.Ingest(Fingerprinted({second}));
  EXPECT_TRUE(second_new.empty());  // Merged into the existing group.
  EXPECT_EQ(dedup.groups().size(), 1u);
  EXPECT_EQ(dedup.groups()[0].members.size(), 2u);
}

TEST(PairwiseDedupTest, KeepsUncorrelatedApart) {
  PairwiseDedup dedup;
  Regression first = MakeRegression("alpha_module_run", 0.01, 0.05,
                                    StepShape(0.05, 0.01, 48, 600, 0.002));
  Rng rng(601);
  std::vector<double> reversed;
  for (size_t i = 0; i < 48; ++i) {
    reversed.push_back((i < 24 ? 0.08 : 0.05) + rng.Normal(0.0, 0.002));  // Opposite step.
  }
  Regression second = MakeRegression("zeta_engine_step", 0.01, 0.06, reversed);
  dedup.Ingest(Fingerprinted({first}));
  const std::vector<int> new_groups = dedup.Ingest(Fingerprinted({second}));
  EXPECT_EQ(new_groups.size(), 1u);
  EXPECT_EQ(dedup.groups().size(), 2u);
}

TEST(PairwiseDedupTest, ScoreExposesFeatureValues) {
  // Identical shape and name: the Pearson and text features Ingest scores
  // the pair on are both near 1, so the probe merges even under a rule that
  // asks for near-perfect scores.
  PairwiseRule rule;
  rule.min_pearson = 0.95;
  rule.min_text = 0.95;
  PairwiseDedup dedup(rule);
  Regression first = MakeRegression("svc_sub", 0.01, 0.05,
                                    StepShape(0.05, 0.01, 48, 800, 0.0001));
  dedup.Ingest(Fingerprinted({first}));
  Regression probe = MakeRegression("svc_sub", 0.01, 0.05,
                                    StepShape(0.05, 0.01, 48, 800, 0.0001));
  EXPECT_GT(AlignedPearson(probe, first), 0.95);
  EXPECT_GT(CosineSimilarity(ComputeFingerprint(probe).tokens, ComputeFingerprint(first).tokens),
            0.95);
  EXPECT_TRUE(dedup.Ingest(Fingerprinted({probe})).empty());
  EXPECT_EQ(dedup.groups()[0].members.size(), 2u);
}

// ---------------------------------------------------------------------------
// Cost-shift detector.
// ---------------------------------------------------------------------------

// Fake code info with one class of three subroutines and a caller.
class FakeCodeInfo : public CodeInfoProvider {
 public:
  std::vector<std::string> CallersOf(const std::string& subroutine) const override {
    if (subroutine == "method_a" || subroutine == "method_b" || subroutine == "method_c") {
      return {"caller"};
    }
    return {};
  }
  std::string ClassOf(const std::string& subroutine) const override {
    if (subroutine == "caller") {
      return "Caller";
    }
    const bool member =
        subroutine == "method_a" || subroutine == "method_b" || subroutine == "method_c";
    return member ? "Widget" : "";
  }
  std::vector<std::string> ClassMembers(const std::string& class_name) const override {
    if (class_name == "Widget") {
      return {"method_a", "method_b", "method_c"};
    }
    return {};
  }
  bool IsDescendant(const std::string&, const std::string&) const override { return false; }
};

// Writes a series with a step at `step_at`.
void WriteStepSeries(TimeSeriesDatabase& db, const MetricId& id, double before, double after,
                     TimePoint step_at, TimePoint end) {
  TimeSeries series;
  for (TimePoint t = 0; t < end; t += Minutes(10)) {
    series.Append(t, t < step_at ? before : after);
  }
  CommitSeries(db, id, series);
}

// The same for the gCPU series of `subroutine`.
void WriteStepSeries(TimeSeriesDatabase& db, const std::string& subroutine, double before,
                     double after, TimePoint step_at, TimePoint end) {
  WriteStepSeries(db, MetricId{"svc", MetricKind::kGcpu, subroutine, ""}, before, after,
                  step_at, end);
}

Regression ShiftCandidate(const MetricId& metric, double delta, double baseline,
                          TimePoint change, TimePoint detected) {
  Regression regression;
  regression.metric = metric;
  regression.change_time = change;
  regression.detected_at = detected;
  regression.baseline_mean = baseline;
  regression.delta = delta;
  regression.relative_delta = delta / baseline;
  return regression;
}

Regression ShiftCandidate(const std::string& subroutine, double delta, double baseline,
                          TimePoint change, TimePoint detected) {
  return ShiftCandidate(MetricId{"svc", MetricKind::kGcpu, subroutine, ""}, delta, baseline,
                        change, detected);
}

// Where a cost-shift case's member history is stored. Cost shift reads
// members the way the scan does, so the verdict must not depend on it.
enum class HistoryStorage {
  kRawTail,         // Everything in the raw tail.
  kSealed,          // History before the change point sealed into chunks.
  kRestoredChunks,  // Sealed, persisted, then restored from the chunk file.
};

// A fresh directory for a durable database, removed with its files.
struct TempDir {
  TempDir() {
    std::string templ =
        (std::filesystem::temp_directory_path() / "fbd_cost_shift_XXXXXX").string();
    EXPECT_NE(::mkdtemp(templ.data()), nullptr);
    path = templ;
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::string path;
};

using HistoryWriter = std::function<void(TimeSeriesDatabase&)>;
using VerdictFn = std::function<CostShiftVerdict(const TimeSeriesDatabase&)>;

// Writes the history into `storage`, sealing points before `change` for the
// sealed kinds (and closing and reopening the database for restored chunks),
// evaluates, and checks that the member reads took that storage's path.
CostShiftVerdict EvaluateIn(HistoryStorage storage, TimePoint change,
                            const HistoryWriter& write, const VerdictFn& evaluate) {
  TempDir dir;
  TsdbOptions options;
  if (storage == HistoryStorage::kRestoredChunks) {
    options.durable.directory = dir.path;
    options.durable.fsync = false;
  }
  auto db = std::make_unique<TimeSeriesDatabase>(options);
  write(*db);
  if (storage != HistoryStorage::kRawTail) {
    db->SealBefore(change);
  }
  if (storage == HistoryStorage::kRestoredChunks) {
    db.reset();  // Clean close before the reopen reads the files.
    db = std::make_unique<TimeSeriesDatabase>(options);
    EXPECT_GT(db->durable_stats().recovered_chunks, 0u);
  }
  const TimeSeriesDatabase::ScanStats before = db->scan_stats();
  const CostShiftVerdict verdict = evaluate(*db);
  const TimeSeriesDatabase::ScanStats after = db->scan_stats();
  if (storage == HistoryStorage::kRawTail) {
    EXPECT_GT(after.tail_hits, before.tail_hits);
    EXPECT_EQ(after.sealed_decodes, before.sealed_decodes);
  } else {
    EXPECT_GT(after.sealed_decodes, before.sealed_decodes);
  }
  EXPECT_EQ(after.decode_failures, 0u);
  return verdict;
}

// The raw-tail verdict, after checking that sealed and restored history give
// the same verdict and domain.
CostShiftVerdict EvaluateInEveryStorage(TimePoint change, const HistoryWriter& write,
                                        const VerdictFn& evaluate) {
  const CostShiftVerdict raw = EvaluateIn(HistoryStorage::kRawTail, change, write, evaluate);
  for (const HistoryStorage storage :
       {HistoryStorage::kSealed, HistoryStorage::kRestoredChunks}) {
    const CostShiftVerdict stored = EvaluateIn(storage, change, write, evaluate);
    EXPECT_EQ(stored.is_cost_shift, raw.is_cost_shift) << static_cast<int>(storage);
    EXPECT_EQ(stored.domain, raw.domain) << static_cast<int>(storage);
  }
  return raw;
}

TEST(CostShiftTest, ClassDomainCatchesPureShift) {
  const TimePoint step = Hours(10);
  const TimePoint end = Hours(20);
  FakeCodeInfo code_info;
  const CostShiftVerdict verdict = EvaluateInEveryStorage(
      step,
      [&](TimeSeriesDatabase& db) {
        // method_a gains exactly what method_b loses; method_c unchanged.
        WriteStepSeries(db, "method_a", 0.010, 0.018, step, end);
        WriteStepSeries(db, "method_b", 0.012, 0.004, step, end);
        WriteStepSeries(db, "method_c", 0.005, 0.005, step, end);
      },
      [&](const TimeSeriesDatabase& db) {
        CostShiftDetector detector(&db);
        detector.AddDomainDetector(std::make_unique<ClassDomainDetector>(&code_info));
        return detector.Evaluate(ShiftCandidate("method_a", 0.008, 0.010, step, end));
      });
  EXPECT_TRUE(verdict.is_cost_shift);
  EXPECT_EQ(verdict.domain, "enclosing_class:class/Widget");
}

TEST(CostShiftTest, RealRegressionNotFlagged) {
  const TimePoint step = Hours(10);
  const TimePoint end = Hours(20);
  FakeCodeInfo code_info;
  const CostShiftVerdict verdict = EvaluateInEveryStorage(
      step,
      [&](TimeSeriesDatabase& db) {
        // method_a gains cost; nothing compensates -> the class total rises too.
        WriteStepSeries(db, "method_a", 0.010, 0.018, step, end);
        WriteStepSeries(db, "method_b", 0.012, 0.012, step, end);
        WriteStepSeries(db, "method_c", 0.005, 0.005, step, end);
      },
      [&](const TimeSeriesDatabase& db) {
        CostShiftDetector detector(&db);
        detector.AddDomainDetector(std::make_unique<ClassDomainDetector>(&code_info));
        return detector.Evaluate(ShiftCandidate("method_a", 0.008, 0.010, step, end));
      });
  EXPECT_FALSE(verdict.is_cost_shift);
}

TEST(CostShiftTest, CallerDomainCatchesShiftAmongCallees) {
  const TimePoint step = Hours(10);
  const TimePoint end = Hours(20);
  FakeCodeInfo code_info;
  const CostShiftVerdict verdict = EvaluateInEveryStorage(
      step,
      [&](TimeSeriesDatabase& db) {
        WriteStepSeries(db, "method_a", 0.010, 0.018, step, end);
        // The caller's own (inclusive) gCPU is flat: the shift happened below it.
        WriteStepSeries(db, "caller", 0.040, 0.040, step, end);
      },
      [&](const TimeSeriesDatabase& db) {
        CostShiftDetector detector(&db);
        detector.AddDomainDetector(std::make_unique<CallerDomainDetector>(&code_info));
        return detector.Evaluate(ShiftCandidate("method_a", 0.008, 0.010, step, end));
      });
  EXPECT_TRUE(verdict.is_cost_shift);
  EXPECT_EQ(verdict.domain, "upstream_caller:callers_of/method_a");
}

TEST(CostShiftTest, HugeDomainExcluded) {
  const TimePoint step = Hours(10);
  const TimePoint end = Hours(20);
  FakeCodeInfo code_info;
  const CostShiftVerdict verdict = EvaluateInEveryStorage(
      step,
      [&](TimeSeriesDatabase& db) {
        WriteStepSeries(db, "method_a", 0.0001, 0.0002, step, end);
        // Caller at 20% gCPU — 2000x the regression delta of 0.0001: excluded
        // by check 2 even though it is flat.
        WriteStepSeries(db, "caller", 0.20, 0.20, step, end);
      },
      [&](const TimeSeriesDatabase& db) {
        CostShiftDetector detector(&db);
        detector.AddDomainDetector(std::make_unique<CallerDomainDetector>(&code_info));
        return detector.Evaluate(ShiftCandidate("method_a", 0.0001, 0.0001, step, end));
      });
  EXPECT_FALSE(verdict.is_cost_shift);
}

TEST(CostShiftTest, NewDomainNotACostShift) {
  const TimePoint step = Hours(10);
  const TimePoint end = Hours(20);
  FakeCodeInfo code_info;
  const CostShiftVerdict verdict = EvaluateInEveryStorage(
      step,
      [&](TimeSeriesDatabase& db) {
        WriteStepSeries(db, "method_a", 0.010, 0.018, step, end);
        // method_b's series only exists AFTER the change: the domain is new.
        TimeSeries late;
        for (TimePoint t = step; t < end; t += Minutes(10)) {
          late.Append(t, 0.001);
        }
        CommitSeries(db, {"svc", MetricKind::kGcpu, "method_b", ""}, late);
        WriteStepSeries(db, "method_c", 0.005, 0.0, step, end);
      },
      [&](const TimeSeriesDatabase& db) {
        CostShiftDetector detector(&db);
        detector.AddDomainDetector(std::make_unique<ClassDomainDetector>(&code_info));
        return detector.Evaluate(ShiftCandidate("method_a", 0.008, 0.010, step, end));
      });
  EXPECT_FALSE(verdict.is_cost_shift);
}

TEST(CostShiftTest, CommitDomainGroupsTouchedSubroutines) {
  const TimePoint step = Hours(10);
  const TimePoint end = Hours(20);
  ChangeLog log;
  Commit commit;
  commit.service = "svc";
  commit.time = step - Minutes(30);
  commit.title = "refactor";
  commit.touched_subroutines = {"method_a", "method_b"};
  log.Add(commit);
  const CostShiftVerdict verdict = EvaluateInEveryStorage(
      step,
      [&](TimeSeriesDatabase& db) {
        WriteStepSeries(db, "method_a", 0.010, 0.018, step, end);
        WriteStepSeries(db, "method_b", 0.012, 0.004, step, end);
      },
      [&](const TimeSeriesDatabase& db) {
        CostShiftDetector detector(&db);
        detector.AddDomainDetector(std::make_unique<CommitDomainDetector>(&log, Days(1)));
        return detector.Evaluate(ShiftCandidate("method_a", 0.008, 0.010, step, end));
      });
  EXPECT_TRUE(verdict.is_cost_shift);
}

// An endpoint-cost series of service "svc".
MetricId Endpoint(const std::string& endpoint) {
  return {"svc", MetricKind::kEndpointCost, endpoint, ""};
}

// A gCPU series of service "svc" annotated with `metadata`.
MetricId Annotated(const std::string& metadata) {
  return {"svc", MetricKind::kGcpu, "sub", metadata};
}

// `rising` steps from 0.010 to 0.018 and each of `others` from 0.012 by its
// delta; the verdict on `rising` under the default domain detectors, which
// without code info or a change log are the two prefix domains.
CostShiftVerdict EvaluatePrefixCase(const MetricId& rising,
                                    const std::vector<std::pair<MetricId, double>>& others) {
  const TimePoint step = Hours(10);
  const TimePoint end = Hours(20);
  return EvaluateInEveryStorage(
      step,
      [&](TimeSeriesDatabase& db) {
        WriteStepSeries(db, rising, 0.010, 0.018, step, end);
        for (const auto& [id, delta] : others) {
          WriteStepSeries(db, id, 0.012, 0.012 + delta, step, end);
        }
      },
      [&](const TimeSeriesDatabase& db) {
        CostShiftDetector detector(&db);
        detector.AddDefaultDetectors(/*code_info=*/nullptr, /*change_log=*/nullptr, Days(1));
        return detector.Evaluate(ShiftCandidate(rising, 0.008, 0.010, step, end));
      });
}

TEST(CostShiftTest, EndpointPrefixDomainCatchesSiblingShift) {
  const CostShiftVerdict verdict =
      EvaluatePrefixCase(Endpoint("api/v1/a"), {{Endpoint("api/v1/b"), -0.008}});
  EXPECT_TRUE(verdict.is_cost_shift);
  EXPECT_EQ(verdict.domain, "endpoint_prefix:endpoint/api/v1");
}

TEST(CostShiftTest, MetadataPrefixDomainCatchesSiblingShift) {
  const CostShiftVerdict verdict =
      EvaluatePrefixCase(Annotated("feature/a"), {{Annotated("feature/b"), -0.008}});
  EXPECT_TRUE(verdict.is_cost_shift);
  EXPECT_EQ(verdict.domain, "metadata_prefix:metadata/feature");
}

// A prefix domain holds whole path segments only. In each case a look-alike
// name, which merely starts with the same characters, drops by what the
// rising series gained; a flat true sibling makes the domain form, so its
// reads are checked in every storage. Counting the look-alike in the domain
// would cancel the rise and filter a real regression.
TEST(CostShiftTest, PrefixDomainsMatchWholePathSegments) {
  struct Case {
    MetricId rising;
    MetricId sibling;
    MetricId look_alike;
  };
  const std::vector<Case> cases = {
      {Endpoint("api/v1/a"), Endpoint("api/v1/b"), Endpoint("api/v10/x")},
      {Annotated("feature/a"), Annotated("feature/b"), Annotated("feature_flags/x")},
      {Endpoint("endpoint_1"), Endpoint("endpoint_1/v2"), Endpoint("endpoint_10")},
  };
  for (const Case& c : cases) {
    const CostShiftVerdict verdict =
        EvaluatePrefixCase(c.rising, {{c.sibling, 0.0}, {c.look_alike, -0.008}});
    EXPECT_FALSE(verdict.is_cost_shift)
        << c.rising.ToString() << " filtered as " << verdict.domain;
  }
}

// The pipeline gives cost shift's commit domains the lookback of the one
// RootCauseConfig it gives root-cause analysis (§5.6), so the commits that
// can explain a regression are the ones that can define its cost domain. A
// commit 36 h before the change is both under a 2-day lookback, and neither
// under the default day.
TEST(CostShiftTest, CommitDomainAndRootCauseShareOneLookback) {
  const TimePoint step = Hours(40);
  const TimePoint end = Hours(60);
  ChangeLog log;
  Commit commit;
  commit.service = "svc";
  commit.time = step - Hours(36);
  commit.title = "refactor";
  commit.touched_subroutines = {"method_a", "method_b"};
  const int64_t commit_id = log.Add(commit);
  TimeSeriesDatabase db;
  WriteStepSeries(db, "method_a", 0.010, 0.018, step, end);
  WriteStepSeries(db, "method_b", 0.012, 0.004, step, end);
  const Regression candidate = ShiftCandidate("method_a", 0.008, 0.010, step, end);
  for (const Duration lookback : {Days(2), RootCauseConfig{}.lookback}) {
    const bool reaches = lookback == Days(2);
    RootCauseConfig config;
    config.lookback = lookback;
    const RootCauseAnalyzer analyzer(&log, nullptr, config);
    EXPECT_EQ(analyzer.QuickCandidates(candidate),
              reaches ? std::vector<int64_t>{commit_id} : std::vector<int64_t>{})
        << "lookback=" << lookback;
    CostShiftDetector detector(&db);
    detector.AddDefaultDetectors(/*code_info=*/nullptr, &log, config.lookback);
    const CostShiftVerdict verdict = detector.Evaluate(candidate);
    EXPECT_EQ(verdict.is_cost_shift, reaches) << "lookback=" << lookback;
    EXPECT_EQ(verdict.domain, reaches ? "commit:commit/" + std::to_string(commit_id) : "")
        << "lookback=" << lookback;
  }
}

}  // namespace
}  // namespace fbdetect
