#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "src/common/random.h"
#include "src/profiling/call_graph.h"
#include "src/profiling/profiler.h"
#include "src/profiling/pyperf.h"
#include "src/tsdb/database.h"
#include "tests/sampling_oracle.h"

namespace fbdetect {
namespace {

// A small hand-built graph:  main -> {work, io}; work -> leaf.
struct TinyGraph {
  CallGraph graph;
  NodeId main_id;
  NodeId work;
  NodeId io;
  NodeId leaf;

  TinyGraph() {
    main_id = graph.AddNode({"main", "Main", 1.0});
    work = graph.AddNode({"work", "Worker", 2.0});
    io = graph.AddNode({"io", "Worker", 3.0});
    leaf = graph.AddNode({"leaf", "Worker", 4.0});
    graph.AddEdge(main_id, work, 1.0);
    graph.AddEdge(main_id, io, 1.0);
    graph.AddEdge(work, leaf, 1.0);
  }
};

TEST(CallGraphTest, SubtreeCostsComposeBottomUp) {
  TinyGraph t;
  const std::vector<double>& subtree = t.graph.SubtreeCosts();
  EXPECT_DOUBLE_EQ(subtree[static_cast<size_t>(t.leaf)], 4.0);
  EXPECT_DOUBLE_EQ(subtree[static_cast<size_t>(t.work)], 2.0 + 4.0);
  EXPECT_DOUBLE_EQ(subtree[static_cast<size_t>(t.io)], 3.0);
  EXPECT_DOUBLE_EQ(subtree[static_cast<size_t>(t.main_id)], 1.0 + 6.0 + 3.0);
}

TEST(CallGraphTest, ReachProbabilities) {
  TinyGraph t;
  const std::vector<double> reach = t.graph.ReachProbabilities();
  // Single root: every sample passes through main.
  EXPECT_DOUBLE_EQ(reach[static_cast<size_t>(t.main_id)], 1.0);
  // P(work) = subtree(work)/subtree(main) = 6/10.
  EXPECT_NEAR(reach[static_cast<size_t>(t.work)], 0.6, 1e-12);
  EXPECT_NEAR(reach[static_cast<size_t>(t.io)], 0.3, 1e-12);
  // P(leaf) = P(work) * 4/6.
  EXPECT_NEAR(reach[static_cast<size_t>(t.leaf)], 0.4, 1e-12);
}

TEST(CallGraphTest, SampledGcpuMatchesReach) {
  TinyGraph t;
  Rng rng(1);
  const std::vector<double> sampled = oracle::SampledGcpu(t.graph, 50000, rng);
  const std::vector<double> reach = t.graph.ReachProbabilities();
  for (NodeId id : {t.main_id, t.work, t.io, t.leaf}) {
    EXPECT_NEAR(sampled[static_cast<size_t>(id)], reach[static_cast<size_t>(id)], 0.01)
        << t.graph.node(id).name;
  }
}

TEST(CallGraphTest, CallersOfAndClassMembers) {
  TinyGraph t;
  EXPECT_EQ(t.graph.CallersOf(t.leaf), (std::vector<NodeId>{t.work}));
  EXPECT_EQ(t.graph.NodesInClass("Worker").size(), 3u);
  EXPECT_EQ(t.graph.FindByName("io"), t.io);
  EXPECT_EQ(t.graph.FindByName("nope"), kInvalidNode);
}

TEST(CallGraphTest, RandomGraphIsWellFormed) {
  Rng rng(2);
  RandomCallGraphOptions options;
  options.num_subroutines = 300;
  const CallGraph graph = GenerateRandomCallGraph(options, rng);
  EXPECT_EQ(graph.node_count(), 300u);
  const std::vector<NodeId> roots = oracle::Roots(graph);
  EXPECT_FALSE(roots.empty());
  const std::vector<double> reach = graph.ReachProbabilities();
  double root_total = 0.0;
  for (NodeId r : roots) {
    root_total += reach[static_cast<size_t>(r)];
  }
  EXPECT_NEAR(root_total, 1.0, 1e-9);
  for (double p : reach) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(SampleBinomialTest, MatchesMoments) {
  Rng rng(3);
  // Large-variance branch (normal approximation).
  double sum = 0.0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    sum += static_cast<double>(SampleBinomial(100000, 0.01, rng));
  }
  EXPECT_NEAR(sum / trials, 1000.0, 5.0);
  // Rare-event branch (Poisson).
  sum = 0.0;
  for (int i = 0; i < trials; ++i) {
    sum += static_cast<double>(SampleBinomial(1000, 0.001, rng));
  }
  EXPECT_NEAR(sum / trials, 1.0, 0.1);
  // Edge cases.
  EXPECT_EQ(SampleBinomial(0, 0.5, rng), 0u);
  EXPECT_EQ(SampleBinomial(10, 0.0, rng), 0u);
  EXPECT_EQ(SampleBinomial(10, 1.0, rng), 10u);
}

TEST(SamplingProfilerTest, AnalyticBucketTracksReach) {
  TinyGraph t;
  SamplingConfig config;
  config.samples_per_bucket = 1000000;
  SamplingProfiler profiler("svc", config);
  Rng rng(4);
  const std::vector<uint64_t> counts = profiler.AnalyticBucket(t.graph, rng);
  const std::vector<double> reach = t.graph.ReachProbabilities();
  for (size_t i = 0; i < counts.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / 1e6, reach[i], 0.005);
  }
}

TEST(SamplingProfilerTest, WriteGcpuBucketPopulatesDatabase) {
  TinyGraph t;
  SamplingConfig config;
  config.samples_per_bucket = 100000;
  SamplingProfiler profiler("svc", config);
  Rng rng(5);
  TimeSeriesDatabase db;
  WriteBatch batch(&db);
  profiler.WriteGcpuBucket(t.graph, 600, rng, batch);
  batch.Commit();
  const MetricId main_metric{"svc", MetricKind::kGcpu, "main", ""};
  ASSERT_TRUE(db.Find(main_metric).has_value());
  EXPECT_NEAR(db.Find(main_metric)->values()[0], 1.0, 0.01);
}

// ---------------------------------------------------------------------------
// PyPerf.
// ---------------------------------------------------------------------------

TEST(PyPerfTest, MergesSimpleSnapshot) {
  InterpreterSnapshot snapshot;
  snapshot.native_stack = {
      {NativeFrameKind::kSystem, "_start"},
      {NativeFrameKind::kInterpreterCall, "Py_RunMain"},
      {NativeFrameKind::kPyEvalFrame, "_PyEval_EvalFrameDefault"},
      {NativeFrameKind::kInterpreterCall, "_PyObject_Call"},
      {NativeFrameKind::kPyEvalFrame, "_PyEval_EvalFrameDefault"},
      {NativeFrameKind::kNativeLibrary, "c_lib_foo"},
  };
  snapshot.virtual_call_stack = {{"py_funX", "x.py", 1}, {"py_funZ", "z.py", 2}};
  bool torn = true;
  const std::vector<MergedFrame> merged = MergeStacks(snapshot, &torn);
  EXPECT_FALSE(torn);
  ASSERT_EQ(merged.size(), 4u);  // _start, py_funX, py_funZ, c_lib_foo.
  EXPECT_EQ(merged[0].symbol, "_start");
  EXPECT_FALSE(merged[0].is_python);
  EXPECT_EQ(merged[1].symbol, "py_funX");
  EXPECT_TRUE(merged[1].is_python);
  EXPECT_EQ(merged[2].symbol, "py_funZ");
  EXPECT_EQ(merged[3].symbol, "c_lib_foo");
  EXPECT_FALSE(merged[3].is_python);
}

TEST(PyPerfTest, TornSampleAlignsFromLeaf) {
  InterpreterSnapshot snapshot;
  snapshot.native_stack = {
      {NativeFrameKind::kPyEvalFrame, "_PyEval_EvalFrameDefault"},
      {NativeFrameKind::kPyEvalFrame, "_PyEval_EvalFrameDefault"},
  };
  // Only the innermost VCS frame survived the race.
  snapshot.virtual_call_stack = {{"py_inner", "i.py", 1}};
  bool torn = false;
  const std::vector<MergedFrame> merged = MergeStacks(snapshot, &torn);
  EXPECT_TRUE(torn);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].symbol, "<unknown-python-frame>");
  EXPECT_EQ(merged[1].symbol, "py_inner");  // Leaf matched to leaf.
}

TEST(PyPerfTest, SimulatedProcessProducesConsistentSnapshots) {
  SimulatedInterpreterProcess::Options options;
  SimulatedInterpreterProcess process(options, 42);
  for (int i = 0; i < 500; ++i) {
    const InterpreterSnapshot snapshot = process.Sample();
    size_t eval_frames = 0;
    for (const NativeFrame& frame : snapshot.native_stack) {
      if (frame.kind == NativeFrameKind::kPyEvalFrame) {
        ++eval_frames;
      }
    }
    EXPECT_EQ(eval_frames, snapshot.virtual_call_stack.size());
    bool torn = true;
    const std::vector<MergedFrame> merged = MergeStacks(snapshot, &torn);
    EXPECT_FALSE(torn);
    // Every Python frame must appear by name in the merged stack, in order.
    size_t python_count = 0;
    for (const MergedFrame& frame : merged) {
      if (frame.is_python) {
        ASSERT_LT(python_count, snapshot.virtual_call_stack.size());
        EXPECT_EQ(frame.symbol, snapshot.virtual_call_stack[python_count].function);
        ++python_count;
      }
      // No interpreter plumbing may leak into the merged stack.
      EXPECT_NE(frame.symbol, "_PyObject_Call");
      EXPECT_NE(frame.symbol, "Py_RunMain");
    }
    EXPECT_EQ(python_count, snapshot.virtual_call_stack.size());
  }
}

}  // namespace
}  // namespace fbdetect
