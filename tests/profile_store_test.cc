#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/core/pairwise_dedup.h"
#include "src/profiling/call_graph.h"
#include "src/profiling/profile_store.h"
#include "tests/stage_helpers.h"

namespace fbdetect {
namespace {

struct StoreGraph {
  CallGraph graph;
  NodeId root;
  NodeId left;
  NodeId right;

  StoreGraph() {
    root = graph.AddNode({"root", "Main", 1.0, ""});
    left = graph.AddNode({"left", "Work", 2.0, ""});
    right = graph.AddNode({"right", "Work", 2.0, ""});
    graph.AddEdge(root, left, 1.0);
    graph.AddEdge(root, right, 1.0);
  }
};

TEST(ProfileStoreTest, IngestAndGcpu) {
  StoreGraph g;
  ProfileStore store(Hours(1));
  ProfileAggregate aggregate;
  aggregate.AddSample({g.root, g.left});
  aggregate.AddSample({g.root, g.right});
  aggregate.AddSample({g.root});
  store.Ingest("svc", Minutes(10), &g.graph, aggregate);

  EXPECT_EQ(store.bucket_count(), 1u);
  EXPECT_DOUBLE_EQ(store.Gcpu("svc", "root", 0, Hours(1)), 1.0);
  EXPECT_NEAR(store.Gcpu("svc", "left", 0, Hours(1)), 1.0 / 3.0, 1e-12);
  EXPECT_EQ(store.Gcpu("svc", "missing", 0, Hours(1)), 0.0);
  EXPECT_EQ(store.Gcpu("other_svc", "root", 0, Hours(1)), 0.0);
}

TEST(ProfileStoreTest, OverlapMatchesAggregates) {
  StoreGraph g;
  ProfileStore store(Hours(1));
  ProfileAggregate aggregate;
  aggregate.AddSample({g.root, g.left});   // root+left.
  aggregate.AddSample({g.root, g.right});  // root+right.
  store.Ingest("svc", 0, &g.graph, aggregate);
  // root appears in 2 samples, left in 1, shared 1: Jaccard = 1/2.
  EXPECT_NEAR(store.Overlap("svc", "root", "left", 0, Hours(1)), 0.5, 1e-12);
  // left and right never share a sample.
  EXPECT_EQ(store.Overlap("svc", "left", "right", 0, Hours(1)), 0.0);
}

TEST(ProfileStoreTest, TimeRangeSelectsBuckets) {
  StoreGraph g;
  ProfileStore store(Hours(1));
  ProfileAggregate first;
  first.AddSample({g.root, g.left});
  store.Ingest("svc", Minutes(30), &g.graph, first);
  ProfileAggregate second;
  second.AddSample({g.root, g.right});
  store.Ingest("svc", Hours(2), &g.graph, second);

  // Query covering only the second bucket.
  EXPECT_EQ(store.Gcpu("svc", "left", Hours(2), Hours(3)), 0.0);
  EXPECT_DOUBLE_EQ(store.Gcpu("svc", "right", Hours(2), Hours(3)), 1.0);
  // Query covering both.
  EXPECT_DOUBLE_EQ(store.Gcpu("svc", "left", 0, Hours(3)), 0.5);
}

TEST(ProfileStoreTest, ExpireDropsOldBuckets) {
  StoreGraph g;
  ProfileStore store(Hours(1));
  ProfileAggregate aggregate;
  aggregate.AddSample({g.root});
  store.Ingest("svc", Minutes(10), &g.graph, aggregate);
  store.Ingest("svc", Hours(5), &g.graph, aggregate);
  EXPECT_EQ(store.bucket_count(), 2u);
  store.Expire(Hours(2));
  EXPECT_EQ(store.bucket_count(), 1u);
  EXPECT_EQ(store.Gcpu("svc", "root", 0, Hours(1)), 0.0);
  EXPECT_DOUBLE_EQ(store.Gcpu("svc", "root", Hours(5), Hours(6)), 1.0);
}

TEST(ProfileStoreTest, MultiBucketOverlapIsSampleWeighted) {
  StoreGraph g;
  ProfileStore store(Hours(1));
  // Bucket 1: 1 sample, overlap(root,left)=1.
  ProfileAggregate b1;
  b1.AddSample({g.root, g.left});
  store.Ingest("svc", 0, &g.graph, b1);
  // Bucket 2: 3 samples, overlap(root,left)=1/3.
  ProfileAggregate b2;
  b2.AddSample({g.root, g.left});
  b2.AddSample({g.root, g.right});
  b2.AddSample({g.root});
  store.Ingest("svc", Hours(1), &g.graph, b2);
  // Weighted: (1*1 + 3*(1/3)) / 4 = 0.5.
  EXPECT_NEAR(store.Overlap("svc", "root", "left", 0, Hours(2)), 0.5, 1e-12);
}

TEST(ProfileStoreTest, QueryAtEpochIncludesFirstBucket) {
  // Regression test for the first-bucket computation: begin = 0 must select
  // the epoch bucket, and a begin inside the first bucket must too.
  StoreGraph g;
  ProfileStore store(Hours(1));
  ProfileAggregate aggregate;
  aggregate.AddSample({g.root});
  store.Ingest("svc", Minutes(10), &g.graph, aggregate);

  EXPECT_DOUBLE_EQ(store.Gcpu("svc", "root", 0, Hours(1)), 1.0);
  EXPECT_DOUBLE_EQ(store.Gcpu("svc", "root", Minutes(5), Hours(1)), 1.0);
  EXPECT_DOUBLE_EQ(store.Gcpu("svc", "root", Minutes(59), Hours(1)), 1.0);
}

TEST(ProfileStoreTest, QueryExcludesBucketEndingAtBegin) {
  // Regression test: the old first-bucket arithmetic truncated toward zero,
  // which for begin > bucket_width admitted the bucket ENDING at/before
  // `begin` — mixing one stale bucket into every query. A bucket whose range
  // is [0, 1h) must not satisfy a query over [1h, 2h).
  StoreGraph g;
  ProfileStore store(Hours(1));
  ProfileAggregate stale;
  stale.AddSample({g.root, g.left});
  store.Ingest("svc", Minutes(10), &g.graph, stale);  // Bucket [0, 1h).

  // begin exactly at the boundary and begin just past it: both exclude it.
  EXPECT_EQ(store.Gcpu("svc", "left", Hours(1), Hours(2)), 0.0);
  EXPECT_EQ(store.Gcpu("svc", "left", Hours(1) + 1, Hours(2)), 0.0);
  EXPECT_EQ(store.Overlap("svc", "root", "left", Hours(1), Hours(2)), 0.0);

  // A begin strictly inside the bucket still selects it.
  EXPECT_DOUBLE_EQ(store.Gcpu("svc", "left", Hours(1) - 1, Hours(2)), 1.0);
}

TEST(ProfileStoreTest, FeedsPairwiseDedupOverlapFeature) {
  // Wire the store into PairwiseDedup as the StackOverlapFn and check that
  // sample-sharing subroutines merge even with dissimilar names.
  StoreGraph g;
  auto store = std::make_shared<ProfileStore>(Hours(1));
  ProfileAggregate aggregate;
  for (int i = 0; i < 10; ++i) {
    aggregate.AddSample({g.root, g.left});  // root and left always co-occur.
  }
  store->Ingest("svc", 0, &g.graph, aggregate);

  PairwiseRule rule;
  rule.min_text = 0.99;  // Force the merge decision onto the overlap feature.
  PairwiseDedup dedup(rule, [store](const MetricId& a, const MetricId& b) {
    return store->Overlap(a.service, a.entity, b.entity, 0, Hours(1));
  });

  auto make_regression = [](const std::string& name) {
    Regression regression;
    regression.metric = {"svc", MetricKind::kGcpu, name, ""};
    Rng rng(1);  // Same seed => identical series => Pearson 1.
    for (int i = 0; i < 24; ++i) {
      regression.analysis.push_back(rng.Normal(i < 12 ? 0.05 : 0.06, 0.0005));
      regression.analysis_timestamps.push_back(static_cast<TimePoint>(i) * Minutes(10));
    }
    regression.change_index = 12;
    regression.delta = 0.01;
    return regression;
  };
  dedup.Ingest(Fingerprinted({make_regression("root")}));
  const std::vector<int> new_groups = dedup.Ingest(Fingerprinted({make_regression("left")}));
  EXPECT_TRUE(new_groups.empty());  // Merged through the stored overlap.
  EXPECT_EQ(dedup.groups().size(), 1u);
}

}  // namespace
}  // namespace fbdetect
