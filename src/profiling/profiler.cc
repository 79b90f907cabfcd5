#include "src/profiling/profiler.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace fbdetect {

uint64_t SampleBinomial(uint64_t n, double p, Rng& rng) {
  if (n == 0 || p <= 0.0) {
    return 0;
  }
  if (p >= 1.0) {
    return n;
  }
  const double np = static_cast<double>(n) * p;
  const double variance = np * (1.0 - p);
  if (variance > 100.0) {
    const double draw = rng.Normal(np, std::sqrt(variance));
    const double clamped = std::clamp(draw, 0.0, static_cast<double>(n));
    return static_cast<uint64_t>(std::llround(clamped));
  }
  if (np < 30.0 && p < 0.05) {
    // Poisson approximation for rare events.
    const int draw = rng.Poisson(np);
    return std::min<uint64_t>(static_cast<uint64_t>(draw), n);
  }
  // Exact Bernoulli summation for the small-n middle ground.
  uint64_t count = 0;
  for (uint64_t i = 0; i < n; ++i) {
    if (rng.NextDouble() < p) {
      ++count;
    }
  }
  return count;
}

SamplingProfiler::SamplingProfiler(std::string service, SamplingConfig config)
    : service_(std::move(service)), config_(config) {
  FBD_CHECK(config_.samples_per_bucket > 0);
  FBD_CHECK(config_.bucket_width > 0);
}

std::vector<uint64_t> SamplingProfiler::AnalyticBucket(const CallGraph& graph, Rng& rng) const {
  const std::vector<double> reach = graph.ReachProbabilities();
  std::vector<uint64_t> counts(reach.size(), 0);
  for (size_t i = 0; i < reach.size(); ++i) {
    counts[i] = SampleBinomial(config_.samples_per_bucket, reach[i], rng);
  }
  return counts;
}

void SamplingProfiler::EnsureHandles(const CallGraph& graph, TimeSeriesDatabase& db) {
  if (handles_db_ == &db && gcpu_ids_.size() == graph.node_count()) {
    return;
  }
  handles_db_ = &db;
  const size_t n = graph.node_count();
  gcpu_ids_.clear();
  gcpu_ids_.reserve(n);
  gcpu_recorded_.assign(n, false);
  for (size_t i = 0; i < n; ++i) {
    MetricId id;
    id.service = service_;
    id.kind = MetricKind::kGcpu;
    id.entity = graph.node(static_cast<NodeId>(i)).name;
    gcpu_ids_.push_back(db.Intern(id));
  }
}

void SamplingProfiler::WriteGcpuBucket(const CallGraph& graph, TimePoint bucket_start, Rng& rng,
                                       WriteBatch& batch) {
  EnsureHandles(graph, *batch.db());
  const std::vector<uint64_t> counts = AnalyticBucket(graph, rng);
  const double denom = static_cast<double>(config_.samples_per_bucket);
  for (size_t i = 0; i < counts.size(); ++i) {
    const double gcpu = static_cast<double>(counts[i]) / denom;
    // A subroutine counts as recorded once it has ever been staged (a point
    // staged in an uncommitted batch is not yet visible to Contains), so a
    // collapsing subroutine keeps getting points regardless of batching.
    if (gcpu < config_.min_gcpu_to_record && !gcpu_recorded_[i] &&
        !batch.db()->Contains(gcpu_ids_[i])) {
      continue;
    }
    gcpu_recorded_[i] = true;
    batch.Add(gcpu_ids_[i], bucket_start, gcpu);
  }
}

}  // namespace fbdetect
