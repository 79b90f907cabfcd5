// Fleet-wide sampling profiler (§4).
//
// Production FBDetect uses eBPF (C/C++), Xenon (PHP), or PyPerf (Python) to
// capture stack traces at a configured rate — from one sample per server per
// minute (FrontFaaS) to one per server per second (Invoicer) — and converts
// them to per-subroutine gCPU time series.
//
// The simulated profiler does not walk stacks one by one. AnalyticBucket()
// draws each subroutine's containment count directly from Binomial(n, p_u),
// where p_u is the call graph's closed-form reach probability. Under the walk
// model each count is exactly Binomial(n, p_u), so per-subroutine gCPU keeps
// its distribution while the fleet simulator synthesizes millions of samples
// per tick in O(k) time. Cross-subroutine correlations are not preserved:
// the detectors consume per-series data. The tests check the counts against
// an explicit stack-walk oracle (tests/sampling_oracle.h).
#ifndef FBDETECT_SRC_PROFILING_PROFILER_H_
#define FBDETECT_SRC_PROFILING_PROFILER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/common/sim_time.h"
#include "src/profiling/call_graph.h"
#include "src/tsdb/database.h"

namespace fbdetect {

struct SamplingConfig {
  uint64_t samples_per_bucket = 100000;  // Fleet-wide samples per time bucket.
  Duration bucket_width = Minutes(10);   // Time-series resolution.
  double min_gcpu_to_record = 0.00001;   // Drop sub-trivial subroutines (§2:
                                         // "non-trivial" is gCPU >= 0.001%).
};

class SamplingProfiler {
 public:
  SamplingProfiler(std::string service, SamplingConfig config);

  // Per-node containment counts ~ Binomial(samples_per_bucket, reach_u),
  // using a normal approximation when n*p is large.
  std::vector<uint64_t> AnalyticBucket(const CallGraph& graph, Rng& rng) const;

  // Runs AnalyticBucket and stages gCPU points (count / samples_per_bucket)
  // for every recorded subroutine into `batch` at time `bucket_start`.
  // Subroutines below min_gcpu_to_record are skipped unless recorded before
  // (so a collapsing subroutine still gets points). Interned metric handles
  // are cached across buckets, keyed on the batch's database, so the steady
  // state stages packed integer keys without touching identity strings.
  void WriteGcpuBucket(const CallGraph& graph, TimePoint bucket_start, Rng& rng,
                       WriteBatch& batch);

  const std::string& service() const { return service_; }
  const SamplingConfig& config() const { return config_; }

 private:
  // (Re)builds the cached interned handles when the target database or the
  // graph shape changed.
  void EnsureHandles(const CallGraph& graph, TimeSeriesDatabase& db);

  std::string service_;
  SamplingConfig config_;

  // Cached interned handles, valid for `handles_db_` only.
  TimeSeriesDatabase* handles_db_ = nullptr;
  std::vector<InternedMetricId> gcpu_ids_;          // Per graph node.
  std::vector<bool> gcpu_recorded_;                 // Node ever written?
};

// Draws from Binomial(n, p) with a normal approximation when n*p*(1-p) > 100
// and exact Bernoulli summation (via Poisson split) otherwise. Exposed for
// tests.
uint64_t SampleBinomial(uint64_t n, double p, Rng& rng);

}  // namespace fbdetect

#endif  // FBDETECT_SRC_PROFILING_PROFILER_H_
