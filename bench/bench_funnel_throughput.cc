// Post-scan funnel throughput harness. Writes BENCH_funnel.json.
//
// Two measurements:
//   1. Thread scaling of the funnel pass (fingerprint -> merger -> SOMDedup
//      -> PairwiseDedup) over synthetic survivor batches at scan_threads
//      1/2/4/8; outputs are checked identical across thread counts.
//   2. PairwiseDedup ingest cost vs the number G of regressions already
//      ingested (G in {64, 256, 1024}). The seeds share the "svc" token and
//      a step shape, so they merge into one group of G members; probe cost
//      grows with G through the per-member scoring.
//
// `--threads-sweep` instead records the section-1 curve into
// BENCH_scaling.json.
#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/check.h"
#include "src/common/random.h"
#include "src/common/thread_pool.h"
#include "src/core/fingerprint.h"
#include "src/core/pairwise_dedup.h"
#include "src/core/same_regression_merger.h"
#include "src/core/som_dedup.h"

namespace fbdetect {
namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

// ---------------------------------------------------------------------------
// Synthetic survivor batches.
// ---------------------------------------------------------------------------

std::vector<double> StepShape(double base, double delta, size_t n, uint64_t seed,
                              double noise) {
  Rng rng(seed);
  std::vector<double> values;
  values.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    values.push_back((i < n / 2 ? base : base + delta) + rng.Normal(0.0, noise));
  }
  return values;
}

Regression MakeSurvivor(const std::string& subroutine, uint64_t shape_seed,
                        TimePoint change_time, std::vector<int64_t> causes) {
  Regression regression;
  regression.metric = {"svc", MetricKind::kGcpu, subroutine, ""};
  regression.change_time = change_time;
  regression.detected_at = change_time + Hours(4);
  regression.change_index = 24;
  regression.baseline_mean = 0.05;
  regression.regressed_mean = 0.06;
  regression.delta = 0.01;
  regression.relative_delta = 0.2;
  regression.analysis = StepShape(0.05, 0.01, 48, shape_seed, 0.0001);
  for (size_t i = 0; i < regression.analysis.size(); ++i) {
    regression.analysis_timestamps.push_back(change_time - Hours(4) +
                                             static_cast<TimePoint>(i) * Minutes(10));
  }
  regression.historical.assign(50, 0.05);
  regression.candidate_root_causes = std::move(causes);
  return regression;
}

// `families` name groups whose members share tokens and correlate in time;
// distinct families share neither. One batch = one simulated re-run's
// post-threshold survivors.
std::vector<Regression> MakeSurvivorBatch(size_t batch, size_t survivors, size_t families) {
  std::vector<Regression> out;
  out.reserve(survivors);
  const TimePoint change_time = Hours(10) + static_cast<TimePoint>(batch) * Days(1);
  for (size_t i = 0; i < survivors; ++i) {
    const size_t family = i % families;
    const size_t member = i / families;
    // Realistic gCPU subroutine ids are long qualified names; gram cost
    // scales with length, which is exactly what the fingerprint path
    // amortizes.
    const std::string name = "ads_ranking_feature_scorer_mod" + std::to_string(family) +
                             "_request_handler_" + std::to_string(batch) + "_" +
                             std::to_string(member) + "_compute_weighted_cost_estimate";
    out.push_back(MakeSurvivor(name, 1000 + family, change_time,
                               {static_cast<int64_t>(family)}));
  }
  return out;
}

struct FunnelResult {
  size_t admitted = 0;
  size_t representatives = 0;
  size_t groups = 0;
  std::multiset<std::string> representative_metrics;
};

// The funnel: fingerprint once, then hashed/indexed stages; `pool` fans out
// fingerprinting, SOM assignment, and pairwise scoring.
FunnelResult RunFunnel(const std::vector<std::vector<Regression>>& batches,
                       Duration tolerance, ThreadPool* pool) {
  FunnelResult result;
  SameRegressionMerger merger(tolerance);
  const SomDedup som_dedup;
  PairwiseDedup pairwise;
  for (const std::vector<Regression>& batch : batches) {
    std::vector<FunnelCandidate> candidates(batch.size());
    ParallelIndexFor(batch.size(), pool, [&](size_t i) {
      candidates[i].fingerprint = ComputeFingerprint(batch[i]);
      candidates[i].regression = batch[i];
    });
    std::vector<FunnelCandidate> admitted = merger.Filter(std::move(candidates));
    result.admitted += admitted.size();
    std::vector<FunnelCandidate> representatives =
        som_dedup.Deduplicate(std::move(admitted), pool);
    result.representatives += representatives.size();
    for (const FunnelCandidate& representative : representatives) {
      result.representative_metrics.insert(representative.fingerprint.metric_string);
    }
    pairwise.Ingest(std::move(representatives), pool);
  }
  result.groups = pairwise.groups().size();
  return result;
}

// Runs the funnel once per thread count and checks each output against the
// serial `reference` (identical for any thread count); returns wall ms.
std::vector<double> TimeThreadCounts(const std::vector<std::vector<Regression>>& batches,
                                     Duration tolerance, const std::vector<int>& threads_list,
                                     const FunnelResult& reference) {
  std::vector<double> thread_ms;
  for (int threads : threads_list) {
    ThreadPool pool(static_cast<size_t>(threads - 1));
    ThreadPool* pool_ptr = threads > 1 ? &pool : nullptr;
    const auto t0 = std::chrono::steady_clock::now();
    const FunnelResult result = RunFunnel(batches, tolerance, pool_ptr);
    thread_ms.push_back(MillisSince(t0));
    FBD_CHECK(result.admitted == reference.admitted);
    FBD_CHECK(result.representatives == reference.representatives);
    FBD_CHECK(result.groups == reference.groups);
    FBD_CHECK(result.representative_metrics == reference.representative_metrics);
    std::printf("    threads=%d: %8.1f ms   speedup vs 1: %.2fx\n", threads, thread_ms.back(),
                thread_ms.front() / thread_ms.back());
  }
  return thread_ms;
}

// The funnel's unit for each regression: the regression and its fingerprint.
std::vector<FunnelCandidate> Fingerprinted(std::vector<Regression> regressions) {
  std::vector<FunnelCandidate> candidates(regressions.size());
  for (size_t i = 0; i < regressions.size(); ++i) {
    candidates[i].fingerprint = ComputeFingerprint(regressions[i]);
    candidates[i].regression = std::move(regressions[i]);
  }
  return candidates;
}

// `count` seed regressions in one analysis window; they correlate and share
// the service token, so they merge into a single group.
std::vector<Regression> MakeGroupSeeds(size_t count) {
  std::vector<Regression> seeds;
  seeds.reserve(count);
  for (size_t g = 0; g < count; ++g) {
    seeds.push_back(MakeSurvivor("grp" + std::to_string(g) + "q" + std::to_string(g * 7 + 13),
                                 5000 + g, Hours(10), {}));
  }
  return seeds;
}

// Probes named after seeds spread across all `seeds`, in a later window that
// does not overlap the seeds' (Pearson 0 against them), so they merge with
// each other into one new group.
std::vector<Regression> MakeGroupProbes(size_t probes, size_t seeds) {
  std::vector<Regression> out;
  out.reserve(probes);
  for (size_t p = 0; p < probes; ++p) {
    const size_t g = (p * (seeds / probes)) % seeds;  // Spread across seeds.
    out.push_back(MakeSurvivor("grp" + std::to_string(g) + "q" + std::to_string(g * 7 + 13),
                               5000 + g, Hours(34), {}));
  }
  return out;
}

}  // namespace
}  // namespace fbdetect

int main(int argc, char** argv) {
  using namespace fbdetect;
  using Clock = std::chrono::steady_clock;

  bool smoke = false;
  bool threads_sweep = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
    } else if (std::string(argv[i]) == "--threads-sweep") {
      threads_sweep = true;
    }
  }

  PrintHeader(std::string("Funnel throughput: fingerprints, flat SOM, pairwise") +
              (smoke ? " [smoke]" : "") + (threads_sweep ? " [threads-sweep]" : ""));
  const unsigned hw_cores = std::thread::hardware_concurrency();
  std::printf("hardware cores: %u\n", hw_cores);

  const size_t kBatches = smoke ? 2 : 3;
  const size_t kSurvivors = smoke ? 60 : 600;
  const size_t kFamilies = smoke ? 12 : 24;
  std::vector<std::vector<Regression>> batches;
  for (size_t b = 0; b < kBatches; ++b) {
    batches.push_back(MakeSurvivorBatch(b, kSurvivors, kFamilies));
  }
  const Duration tolerance = Hours(1);
  // Untimed serial pass: warms the caches and is the output every timed
  // thread count must reproduce.
  const FunnelResult reference = RunFunnel(batches, tolerance, nullptr);
  const std::vector<int> threads_list = {1, 2, 4, 8};

  // --- Threads sweep: the multicore rig (EXPERIMENTS.md) -----------------
  // Records the funnel's per-core-count curve into BENCH_scaling.json and
  // returns; the regular sections below are skipped so the sweep can run on
  // a machine reserved for scaling measurements.
  if (threads_sweep) {
    std::printf("\nfunnel threads sweep (%zu batches x %zu survivors)\n", kBatches,
                kSurvivors);
    const std::vector<double> sweep_ms =
        TimeThreadCounts(batches, tolerance, threads_list, reference);
    char extra[128];
    std::snprintf(extra, sizeof(extra), "{\"survivors\": %zu, \"batches\": %zu, \"curve\": ",
                  kSurvivors, kBatches);
    UpdateBenchScalingJson("funnel_sweep",
                           extra + ThreadsCurveJson(threads_list, sweep_ms) + "}");
    // On real multicore hardware parallelism must be a measured win at 8
    // threads; a single-core host (or an oversubscribed smoke run) cannot
    // measure scaling, only correctness.
    if (hw_cores >= 2 && !smoke) {
      FBD_CHECK(sweep_ms.front() / sweep_ms.back() > 1.0);
    }
    return 0;
  }

  // --- 1. Funnel thread scaling -----------------------------------------
  std::printf("\n[1] funnel thread scaling (%zu batches x %zu survivors, %zu families)\n",
              kBatches, kSurvivors, kFamilies);
  std::printf("    admitted: %zu  representatives: %zu  groups: %zu\n", reference.admitted,
              reference.representatives, reference.groups);
  const std::vector<double> thread_ms =
      TimeThreadCounts(batches, tolerance, threads_list, reference);

  // --- 2. Pairwise ingest scaling in seeded regressions -----------------
  std::printf("\n[2] pairwise ingest vs regressions already ingested\n");
  const std::vector<size_t> seed_counts = smoke ? std::vector<size_t>{16, 64}
                                                : std::vector<size_t>{64, 256, 1024};
  const size_t kProbes = smoke ? 8 : 32;
  std::vector<double> ingest_ms;
  for (size_t count : seed_counts) {
    PairwiseDedup pairwise;
    // Seeding and fingerprinting are untimed.
    pairwise.Ingest(Fingerprinted(MakeGroupSeeds(count)));
    std::vector<FunnelCandidate> probes = Fingerprinted(MakeGroupProbes(kProbes, count));
    const auto t0 = Clock::now();
    pairwise.Ingest(std::move(probes));
    ingest_ms.push_back(MillisSince(t0));
    std::printf("    G=%5zu (%zu probes)  ingest: %8.2f ms\n", count, kProbes,
                ingest_ms.back());
  }

  // --- JSON -------------------------------------------------------------
  FILE* json = std::fopen("BENCH_funnel.json", "w");
  FBD_CHECK(json != nullptr);
  std::fprintf(json, "{\n");
  WriteHardwareJson(json);
  std::fprintf(json, ",\n");
  std::fprintf(json, "  \"hardware_cores\": %u,\n", hw_cores);
  std::fprintf(json, "  \"funnel_thread_scaling\": [\n");
  for (size_t i = 0; i < threads_list.size(); ++i) {
    std::fprintf(json, "    {\"threads\": %d, \"ms\": %.2f, \"speedup_vs_1\": %.2f}%s\n",
                 threads_list[i], thread_ms[i], thread_ms[0] / thread_ms[i],
                 i + 1 < threads_list.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json, "  \"pairwise_seed_scaling\": [\n");
  for (size_t i = 0; i < seed_counts.size(); ++i) {
    std::fprintf(json, "    {\"seeds\": %zu, \"probes\": %zu, \"ingest_ms\": %.3f}%s\n",
                 seed_counts[i], kProbes, ingest_ms[i], i + 1 < seed_counts.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n");
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("\nwrote BENCH_funnel.json\n");
  return 0;
}
