// Tests for the paper's "discussion of alternatives" implementations: the
// legacy went-away iterations (§5.2.2) and the clustering alternatives
// (§5.5.1).
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "src/common/random.h"
#include "src/core/clustering_alternatives.h"
#include "src/core/scan_view.h"
#include "src/core/went_away.h"
#include "src/core/went_away_legacy.h"
#include "src/stats/descriptive.h"

namespace fbdetect {
namespace {

// ---------------------------------------------------------------------------
// Legacy went-away iterations.
// ---------------------------------------------------------------------------

// A hand-built gCPU window and its change-point candidate: historical flat
// at `base` (with an optional spike), then an analysis window of 12 points at
// `base` followed by the post-change data given explicitly.
struct HandBuiltWindow {
  std::vector<double> values;  // historical | analysis, oriented.
  size_t historical_size = 0;
  std::vector<TimePoint> analysis_timestamps;
  ScanCandidate candidate;

  ScanView View() const {
    ScanView view;
    view.full = values;
    view.historical_size = historical_size;
    view.analysis_size = values.size() - historical_size;
    view.analysis_timestamps = analysis_timestamps;
    return view;
  }

  // The Regression the scan would build for it, which the legacy iterations
  // take.
  Regression ToRegression() const {
    return MaterializeRegression({"svc", MetricKind::kGcpu, "sub", ""}, View(), candidate);
  }

  bool CurrentDetectorKeeps() const {
    return WentAwayDetector().Evaluate(View(), candidate, 144).keep;
  }
};

HandBuiltWindow BuildWindow(double base, const std::vector<double>& post,
                            bool historical_spike) {
  HandBuiltWindow window;
  Rng rng(7);
  for (int i = 0; i < 288; ++i) {
    double level = base;
    if (historical_spike && i >= 60 && i < 66) {
      level = base * 1.8;  // 6 of 288 points: ~2%, below SAX validity.
    }
    window.values.push_back(rng.Normal(level, base * 0.02));
  }
  window.historical_size = window.values.size();
  // Analysis window: half pre-change at base, half the provided post data.
  for (int i = 0; i < 12; ++i) {
    window.values.push_back(rng.Normal(base, base * 0.02));
  }
  window.candidate.change_index = window.values.size() - window.historical_size;
  window.values.insert(window.values.end(), post.begin(), post.end());
  for (size_t i = window.historical_size; i < window.values.size(); ++i) {
    window.analysis_timestamps.push_back(
        static_cast<TimePoint>(i - window.historical_size) * Minutes(10));
  }
  window.candidate.baseline_mean = base;
  window.candidate.regressed_mean = Mean(std::span<const double>(post));
  window.candidate.delta = window.candidate.regressed_mean - base;
  window.candidate.relative_delta = window.candidate.delta / base;
  return window;
}

// A true regression whose post window contains a temporary dip: the paper's
// counter-example for iteration 1.
TEST(LegacyWentAwayTest, InverseCusumFiltersTrueRegressionWithDip) {
  std::vector<double> post;
  Rng rng(8);
  for (int i = 0; i < 34; ++i) {
    double level = 0.065;             // Regressed level.
    if (i >= 12 && i < 28) {
      level = 0.050;                  // Long temporary dip back to baseline...
    }
    post.push_back(rng.Normal(level, 0.001));
  }
  const HandBuiltWindow window = BuildWindow(0.050, post, false);
  // Iteration 1 wrongly filters it (the dip looks like a compensating
  // inverse shift)...
  EXPECT_FALSE(InverseCusumWentAway().Keep(window.ToRegression()));
  // ...while the current SAX-based detector keeps it.
  EXPECT_TRUE(window.CurrentDetectorKeeps());
}

TEST(LegacyWentAwayTest, InverseCusumKeepsCleanStep) {
  std::vector<double> post;
  Rng rng(9);
  for (int i = 0; i < 36; ++i) {
    post.push_back(rng.Normal(0.065, 0.001));
  }
  EXPECT_TRUE(InverseCusumWentAway().Keep(BuildWindow(0.050, post, false).ToRegression()));
}

// Fig. 7's counter-example for iteration 2: with a spike in the chosen
// baseline slice, a decaying-but-still-regressed series compares as
// "recovered".
TEST(LegacyWentAwayTest, TrendCompareDependsOnBaselineWindowChoice) {
  // Post window: decays from a high overshoot to a still-regressed plateau.
  std::vector<double> post;
  Rng rng(10);
  for (int i = 0; i < 36; ++i) {
    const double level = 0.062 + 0.02 * std::exp(-i / 6.0);
    post.push_back(rng.Normal(level, 0.0005));
  }
  const HandBuiltWindow window = BuildWindow(0.050, post, /*historical_spike=*/true);
  const Regression with_spike = window.ToRegression();
  // The spike sits at indices 60..66 of 288 historical points. With offset
  // such that the baseline slice contains the spike, the still-regressed
  // tail (~0.062) compares BELOW the spike's P90 -> wrongly filtered.
  // offset counts slices from the end; slice size = analysis size (48).
  // Spike at 60..66 => inside slice [48, 96) => offset 4 covers [96+..]..
  // offsets: 0 -> [240,288), 4 -> [48,96).
  const TrendCompareWentAway spike_baseline(4);
  EXPECT_FALSE(spike_baseline.Keep(with_spike));
  // With a clean baseline slice the same regression is kept.
  const TrendCompareWentAway clean_baseline(0);
  EXPECT_TRUE(clean_baseline.Keep(with_spike));
  // The current detector keeps it regardless — no window choice to get wrong.
  EXPECT_TRUE(window.CurrentDetectorKeeps());
}

// ---------------------------------------------------------------------------
// Clustering alternatives.
// ---------------------------------------------------------------------------

std::vector<std::vector<double>> TwoBlobs(int per_blob, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> items;
  for (int i = 0; i < per_blob; ++i) {
    items.push_back({rng.Normal(0.0, 0.2), rng.Normal(0.0, 0.2)});
  }
  for (int i = 0; i < per_blob; ++i) {
    items.push_back({rng.Normal(5.0, 0.2), rng.Normal(5.0, 0.2)});
  }
  return items;
}

TEST(KMeansTest, SeparatesTwoBlobsWithCorrectK) {
  const auto items = TwoBlobs(30, 1);
  const std::vector<int> assignment = KMeansCluster(items, 2, 50, 42);
  const std::set<int> first(assignment.begin(), assignment.begin() + 30);
  const std::set<int> second(assignment.begin() + 30, assignment.end());
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_NE(*first.begin(), *second.begin());
}

TEST(KMeansTest, WrongKFragmentsClusters) {
  // The paper's point: K must be known up front; K=6 on two blobs shatters
  // them into more clusters than there are causes.
  const auto items = TwoBlobs(30, 2);
  const std::vector<int> assignment = KMeansCluster(items, 6, 50, 42);
  EXPECT_GT(CountClusters(assignment), 2);
}

TEST(KMeansTest, DegenerateInputs) {
  EXPECT_TRUE(KMeansCluster({}, 3, 10, 1).empty());
  const std::vector<std::vector<double>> one = {{1.0, 2.0}};
  EXPECT_EQ(KMeansCluster(one, 3, 10, 1), (std::vector<int>{0}));
}

TEST(HierarchicalTest, ThresholdControlsClusterCount) {
  const auto items = TwoBlobs(20, 3);
  // Tiny threshold: everything is its own cluster (or nearly).
  EXPECT_GT(CountClusters(HierarchicalCluster(items, 0.01)), 10);
  // Moderate threshold: exactly the two blobs.
  EXPECT_EQ(CountClusters(HierarchicalCluster(items, 2.0)), 2);
  // Huge threshold: one blob.
  EXPECT_EQ(CountClusters(HierarchicalCluster(items, 100.0)), 1);
}

TEST(SilhouetteTest, PrefersCorrectClustering) {
  const auto items = TwoBlobs(25, 4);
  const std::vector<int> good = HierarchicalCluster(items, 2.0);
  const std::vector<int> bad = KMeansCluster(items, 5, 50, 11);
  EXPECT_GT(SilhouetteScore(items, good), SilhouetteScore(items, bad));
  EXPECT_GT(SilhouetteScore(items, good), 0.8);
}

TEST(SilhouetteTest, SingleClusterScoresZero) {
  const auto items = TwoBlobs(10, 5);
  const std::vector<int> one_cluster(items.size(), 0);
  EXPECT_EQ(SilhouetteScore(items, one_cluster), 0.0);
}

}  // namespace
}  // namespace fbdetect
