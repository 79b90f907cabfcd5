// Post-scan funnel throughput harness for the fingerprint/indexed-dedup
// refactor.
//
// Three measurements, written to BENCH_funnel.json:
//   1. Single-thread funnel pass (merger -> SOMDedup -> PairwiseDedup) over
//      synthetic survivor batches: the pre-refactor string-recomputing
//      funnel vs today's fingerprint-once funnel. The refactor must be
//      >= 2x faster.
//   2. Thread scaling of the new funnel at scan_threads 1/2/4/8 (outputs
//      are byte-identical across thread counts; checked).
//   3. PairwiseDedup ingest scaling in the number of existing groups
//      (G in {64, 256, 1024}): the all-pairs legacy scan re-tokenizes every
//      member per candidate and scales linearly in G; the token-hash
//      inverted index prunes to the handful of groups that can actually
//      pass the merge rule.
//
// Everything in namespace `legacy` below is the pre-change implementation,
// reconstructed verbatim from the seed commit (git show <seed>:src/...):
// string-materializing 2/3-grams and TF-IDF, hash-map timestamp alignment +
// PearsonCorrelation, the nested-vector SOM, the string-keyed merger, and
// the all-pairs pairwise scan. Output consistency between the legacy and
// new funnels is asserted on robust artifacts (survivor counts, group
// counts, representative metric sets) rather than raw doubles: the hashed
// TF-IDF accumulates bucket sums in sorted-hash order instead of
// unordered_map order, which can move embeddings by ulps.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/check.h"
#include "src/common/random.h"
#include "src/common/strings.h"
#include "src/common/thread_pool.h"
#include "src/core/fingerprint.h"
#include "src/core/pairwise_dedup.h"
#include "src/core/same_regression_merger.h"
#include "src/core/som_dedup.h"
#include "src/stats/correlation.h"
#include "src/stats/descriptive.h"
#include "src/stats/fourier.h"
#include "src/stats/text.h"

namespace fbdetect {
namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

namespace legacy {

uint64_t HashGram(const std::string& gram) {
  uint64_t hash = 1469598103934665603ULL;
  for (char c : gram) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::vector<std::string> GramsOf(std::string_view text) {
  std::vector<std::string> grams = CharNgrams(text, 2);
  std::vector<std::string> trigrams = CharNgrams(text, 3);
  grams.insert(grams.end(), trigrams.begin(), trigrams.end());
  return grams;
}

// Pre-refactor string-keyed TF-IDF hasher.
class TfIdf {
 public:
  explicit TfIdf(size_t dimensions) : dimensions_(dimensions) {}

  void Fit(const std::vector<std::string>& corpus) {
    corpus_size_ = corpus.size();
    document_frequency_.clear();
    for (const std::string& document : corpus) {
      std::unordered_set<std::string> seen;
      for (std::string& gram : GramsOf(document)) {
        seen.insert(std::move(gram));
      }
      for (const std::string& gram : seen) {
        ++document_frequency_[gram];
      }
    }
  }

  std::vector<double> Embed(std::string_view text) const {
    std::vector<double> embedding(dimensions_, 0.0);
    std::unordered_map<std::string, double> counts;
    for (std::string& gram : GramsOf(text)) {
      counts[std::move(gram)] += 1.0;
    }
    for (const auto& [gram, count] : counts) {
      double weight = count;
      if (corpus_size_ > 0) {
        const auto it = document_frequency_.find(gram);
        const double df = it != document_frequency_.end() ? static_cast<double>(it->second) : 0.0;
        weight *= std::log((1.0 + static_cast<double>(corpus_size_)) / (1.0 + df)) + 1.0;
      }
      embedding[HashGram(gram) % dimensions_] += weight;
    }
    double norm = 0.0;
    for (double v : embedding) {
      norm += v * v;
    }
    if (norm > 0.0) {
      norm = std::sqrt(norm);
      for (double& v : embedding) {
        v /= norm;
      }
    }
    return embedding;
  }

 private:
  size_t dimensions_;
  size_t corpus_size_ = 0;
  std::unordered_map<std::string, size_t> document_frequency_;
};

// Pre-refactor hash-map timestamp alignment.
double AlignedPearson(const Regression& a, const Regression& b) {
  if (a.analysis.empty() || b.analysis.empty()) {
    return 0.0;
  }
  std::unordered_map<TimePoint, double> b_by_time;
  const size_t bn = std::min(b.analysis.size(), b.analysis_timestamps.size());
  for (size_t i = 0; i < bn; ++i) {
    b_by_time.emplace(b.analysis_timestamps[i], b.analysis[i]);
  }
  std::vector<double> xs;
  std::vector<double> ys;
  const size_t an = std::min(a.analysis.size(), a.analysis_timestamps.size());
  for (size_t i = 0; i < an; ++i) {
    const auto it = b_by_time.find(a.analysis_timestamps[i]);
    if (it != b_by_time.end()) {
      xs.push_back(a.analysis[i]);
      ys.push_back(it->second);
    }
  }
  if (xs.size() < 8) {
    return 0.0;
  }
  return PearsonCorrelation(xs, ys);
}

// Pre-refactor nested-vector SOM with sequential online training.
class NestedSom {
 public:
  NestedSom(size_t dimensions, int grid, uint64_t seed)
      : dimensions_(dimensions), grid_(std::max(1, grid)) {
    Rng rng(seed);
    cells_.resize(static_cast<size_t>(grid_) * static_cast<size_t>(grid_));
    for (auto& cell : cells_) {
      cell.resize(dimensions_);
      for (double& w : cell) {
        w = rng.Uniform(-0.1, 0.1);
      }
    }
  }

  int BestMatchingUnit(const std::vector<double>& item) const {
    int best = 0;
    double best_d2 = Distance2(cells_[0], item);
    for (size_t c = 1; c < cells_.size(); ++c) {
      const double d2 = Distance2(cells_[c], item);
      if (d2 < best_d2) {
        best_d2 = d2;
        best = static_cast<int>(c);
      }
    }
    return best;
  }

  void Train(const std::vector<std::vector<double>>& items, const SomTrainConfig& config) {
    if (items.empty()) {
      return;
    }
    Rng rng(config.seed);
    for (auto& cell : cells_) {
      cell = items[rng.NextUint64(items.size())];
    }
    const int epochs = std::max(1, config.epochs);
    const double initial_radius = std::max(1.0, static_cast<double>(grid_) / 2.0);
    for (int epoch = 0; epoch < epochs; ++epoch) {
      const double progress = static_cast<double>(epoch) / static_cast<double>(epochs);
      const double lr = config.initial_learning_rate +
                        (config.final_learning_rate - config.initial_learning_rate) * progress;
      const double radius = std::max(0.5, initial_radius * (1.0 - progress));
      const double radius2 = radius * radius;
      for (const std::vector<double>& item : items) {
        const int bmu = BestMatchingUnit(item);
        const int bmu_row = bmu / grid_;
        const int bmu_col = bmu % grid_;
        for (int row = 0; row < grid_; ++row) {
          for (int col = 0; col < grid_; ++col) {
            const double dr = static_cast<double>(row - bmu_row);
            const double dc = static_cast<double>(col - bmu_col);
            const double grid_d2 = dr * dr + dc * dc;
            if (grid_d2 > radius2) {
              continue;
            }
            const double influence = std::exp(-grid_d2 / (2.0 * radius2));
            std::vector<double>& cell = cells_[static_cast<size_t>(row * grid_ + col)];
            for (size_t i = 0; i < dimensions_; ++i) {
              cell[i] += lr * influence * (item[i] - cell[i]);
            }
          }
        }
      }
    }
  }

  std::vector<int> Assign(const std::vector<std::vector<double>>& items) const {
    std::vector<int> assignment;
    assignment.reserve(items.size());
    for (const std::vector<double>& item : items) {
      assignment.push_back(BestMatchingUnit(item));
    }
    return assignment;
  }

 private:
  double Distance2(const std::vector<double>& weights, const std::vector<double>& item) const {
    double d2 = 0.0;
    for (size_t i = 0; i < dimensions_; ++i) {
      const double d = weights[i] - item[i];
      d2 += d * d;
    }
    return d2;
  }

  size_t dimensions_;
  int grid_;
  std::vector<std::vector<double>> cells_;
};

// Pre-refactor string-keyed SameRegressionMerger.
class Merger {
 public:
  explicit Merger(Duration tolerance) : tolerance_(tolerance) {}

  std::vector<Regression> Filter(std::vector<Regression> regressions) {
    std::vector<Regression> admitted;
    for (Regression& regression : regressions) {
      std::vector<TimePoint>& times = seen_[regression.metric.ToString()];
      bool duplicate = false;
      for (TimePoint t : times) {
        if (std::llabs(static_cast<long long>(t - regression.change_time)) <=
            static_cast<long long>(tolerance_)) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) {
        times.push_back(regression.change_time);
        admitted.push_back(std::move(regression));
      }
    }
    return admitted;
  }

 private:
  Duration tolerance_;
  std::unordered_map<std::string, std::vector<TimePoint>> seen_;
};

uint64_t MixCommitId(int64_t id) {
  uint64_t state = static_cast<uint64_t>(id) + 0x9e3779b97f4a7c15ULL;
  return SplitMix64(state);
}

// Pre-refactor SOMDedup: string TF-IDF fit + embed per regression, nested
// SOM, importance reduction.
class SomDedupOracle {
 public:
  explicit SomDedupOracle(const SomDedupConfig& config = {}) : config_(config) {}

  double ImportanceScore(const Regression& regression, double max_abs_delta,
                         double max_rel_delta) const {
    const double relative =
        max_rel_delta > 0.0 ? std::fabs(regression.relative_delta) / max_rel_delta : 0.0;
    const double absolute =
        max_abs_delta > 0.0 ? std::fabs(regression.delta) / max_abs_delta : 0.0;
    const double popularity = regression.metric.kind == MetricKind::kGcpu
                                  ? std::clamp(regression.baseline_mean, 0.0, 1.0)
                                  : 0.5;
    const double has_root_cause = regression.candidate_root_causes.empty() ? 0.0 : 1.0;
    return config_.w_relative * relative + config_.w_absolute * absolute +
           config_.w_popularity * (1.0 - popularity) + config_.w_root_cause * has_root_cause;
  }

  std::vector<Regression> Deduplicate(std::vector<Regression> regressions) const {
    if (regressions.size() <= 1) {
      for (Regression& regression : regressions) {
        regression.som_cluster = 0;
        regression.importance = ImportanceScore(regression, std::fabs(regression.delta),
                                                std::fabs(regression.relative_delta));
      }
      return regressions;
    }

    std::vector<std::string> corpus;
    corpus.reserve(regressions.size());
    for (const Regression& regression : regressions) {
      corpus.push_back(regression.metric.ToString());
    }
    TfIdf hasher(config_.metric_id_dims);
    hasher.Fit(corpus);

    std::vector<std::vector<double>> features;
    features.reserve(regressions.size());
    for (const Regression& regression : regressions) {
      features.push_back(BuildFeatureVector(regression, hasher));
    }
    NormalizeColumns(features);

    const int grid = SomGridSize(regressions.size());
    NestedSom som(features[0].size(), grid, config_.training.seed);
    som.Train(features, config_.training);
    const std::vector<int> assignment = som.Assign(features);

    double max_abs = 0.0;
    double max_rel = 0.0;
    for (const Regression& regression : regressions) {
      max_abs = std::max(max_abs, std::fabs(regression.delta));
      max_rel = std::max(max_rel, std::fabs(regression.relative_delta));
    }

    std::vector<int> best_index(static_cast<size_t>(grid) * static_cast<size_t>(grid), -1);
    std::vector<size_t> cluster_sizes(best_index.size(), 0);
    for (size_t i = 0; i < regressions.size(); ++i) {
      regressions[i].som_cluster = assignment[i];
      regressions[i].importance = ImportanceScore(regressions[i], max_abs, max_rel);
      const size_t cell = static_cast<size_t>(assignment[i]);
      ++cluster_sizes[cell];
      if (best_index[cell] < 0) {
        best_index[cell] = static_cast<int>(i);
        continue;
      }
      const Regression& incumbent = regressions[static_cast<size_t>(best_index[cell])];
      const Regression& challenger = regressions[i];
      const bool better =
          challenger.importance > incumbent.importance ||
          (challenger.importance == incumbent.importance &&
           challenger.metric.ToString() < incumbent.metric.ToString());
      if (better) {
        best_index[cell] = static_cast<int>(i);
      }
    }

    std::vector<Regression> representatives;
    for (size_t cell = 0; cell < best_index.size(); ++cell) {
      if (best_index[cell] >= 0) {
        Regression representative =
            std::move(regressions[static_cast<size_t>(best_index[cell])]);
        representative.merged_count = cluster_sizes[cell];
        representatives.push_back(std::move(representative));
      }
    }
    return representatives;
  }

 private:
  std::vector<double> BuildFeatureVector(const Regression& regression,
                                         const TfIdf& hasher) const {
    std::vector<double> features;
    const std::vector<double> fourier =
        FourierMagnitudes(regression.analysis, config_.fourier_coefficients);
    features.insert(features.end(), fourier.begin(), fourier.end());
    features.push_back(SampleVariance(regression.analysis));
    features.push_back(regression.analysis.empty()
                           ? 0.0
                           : static_cast<double>(regression.change_index) /
                                 static_cast<double>(regression.analysis.size()));
    features.push_back(regression.delta);
    features.push_back(regression.relative_delta);
    std::vector<double> bitmap(config_.root_cause_bitmap_dims, 0.0);
    for (int64_t commit : regression.candidate_root_causes) {
      bitmap[MixCommitId(commit) % config_.root_cause_bitmap_dims] = 1.0;
    }
    features.insert(features.end(), bitmap.begin(), bitmap.end());
    const std::vector<double> metric_embedding = hasher.Embed(regression.metric.ToString());
    features.insert(features.end(), metric_embedding.begin(), metric_embedding.end());
    return features;
  }

  void NormalizeColumns(std::vector<std::vector<double>>& rows) const {
    if (rows.empty()) {
      return;
    }
    const size_t dims = rows[0].size();
    for (size_t d = 0; d < dims; ++d) {
      double mean = 0.0;
      for (const auto& row : rows) {
        mean += row[d];
      }
      mean /= static_cast<double>(rows.size());
      double var = 0.0;
      for (const auto& row : rows) {
        const double diff = row[d] - mean;
        var += diff * diff;
      }
      var /= static_cast<double>(rows.size());
      const double sd = std::sqrt(var);
      for (auto& row : rows) {
        row[d] = sd > 0.0 ? (row[d] - mean) / sd : 0.0;
      }
    }
  }

  SomDedupConfig config_;
};

// Pre-refactor all-pairs pairwise dedup, recomputing the text features from
// the metric strings for every (candidate, member) pair.
class PairwiseOracle {
 public:
  explicit PairwiseOracle(PairwiseRule rule = {}, StackOverlapFn overlap = nullptr)
      : rule_(rule), overlap_(std::move(overlap)) {}

  PairwiseScores Score(const Regression& candidate, const RegressionGroup& group) const {
    PairwiseScores scores;
    for (const Regression& member : group.members) {
      scores.pearson = std::max(scores.pearson, legacy::AlignedPearson(candidate, member));
      scores.text = std::max(
          scores.text,
          TextCosineSimilarity(candidate.metric.ToString(), member.metric.ToString()));
      if (overlap_ != nullptr && candidate.metric.kind == MetricKind::kGcpu &&
          member.metric.kind == MetricKind::kGcpu) {
        scores.stack_overlap =
            std::max(scores.stack_overlap, overlap_(candidate.metric, member.metric));
      }
    }
    return scores;
  }

  std::vector<int> Ingest(std::vector<Regression> regressions) {
    std::vector<int> new_groups;
    for (Regression& regression : regressions) {
      int best_group = -1;
      double best_aggregate = 0.0;
      for (size_t g = 0; g < groups_.size(); ++g) {
        const PairwiseScores scores = Score(regression, groups_[g]);
        if (rule_.ShouldMerge(scores) && scores.Aggregate() > best_aggregate) {
          best_aggregate = scores.Aggregate();
          best_group = static_cast<int>(g);
        }
      }
      if (best_group >= 0) {
        groups_[static_cast<size_t>(best_group)].members.push_back(std::move(regression));
        continue;
      }
      RegressionGroup group;
      group.group_id = static_cast<int>(groups_.size());
      group.members.push_back(std::move(regression));
      groups_.push_back(std::move(group));
      new_groups.push_back(groups_.back().group_id);
    }
    return new_groups;
  }

  const std::vector<RegressionGroup>& groups() const { return groups_; }

 private:
  PairwiseRule rule_;
  StackOverlapFn overlap_;
  std::vector<RegressionGroup> groups_;
};

}  // namespace legacy

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

// The pre-refactor funnel: every stage recomputes strings/tokens/grams.
FunnelResult RunLegacyFunnel(const std::vector<std::vector<Regression>>& batches,
                             Duration tolerance) {
  FunnelResult result;
  legacy::Merger merger(tolerance);
  const legacy::SomDedupOracle som_dedup;
  legacy::PairwiseOracle pairwise;
  for (const std::vector<Regression>& batch : batches) {
    std::vector<Regression> admitted = merger.Filter(batch);
    result.admitted += admitted.size();
    std::vector<Regression> representatives = som_dedup.Deduplicate(std::move(admitted));
    result.representatives += representatives.size();
    for (const Regression& representative : representatives) {
      result.representative_metrics.insert(representative.metric.ToString());
    }
    pairwise.Ingest(std::move(representatives));
  }
  result.groups = pairwise.groups().size();
  return result;
}

// Today's funnel: fingerprint once, then hashed/indexed stages; `pool` fans
// out fingerprinting, SOM assignment, and pairwise scoring.
FunnelResult RunNewFunnel(const std::vector<std::vector<Regression>>& batches,
                          Duration tolerance, ThreadPool* pool) {
  FunnelResult result;
  SameRegressionMerger merger(tolerance);
  const SomDedup som_dedup;
  PairwiseDedup pairwise;
  const SomDedupConfig som_config;
  const FingerprintConfig fp_config{som_config.fourier_coefficients,
                                    som_config.root_cause_bitmap_dims, true};
  for (const std::vector<Regression>& batch : batches) {
    std::vector<FunnelCandidate> candidates(batch.size());
    ParallelIndexFor(batch.size(), pool, [&](size_t i) {
      candidates[i].fingerprint = ComputeFingerprint(batch[i], fp_config);
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

// Seeds `G` mutually unrelated groups; returns probes that each merge into
// one distinct group.
std::vector<Regression> MakeGroupSeeds(size_t groups) {
  std::vector<Regression> seeds;
  seeds.reserve(groups);
  for (size_t g = 0; g < groups; ++g) {
    seeds.push_back(MakeSurvivor("grp" + std::to_string(g) + "q" + std::to_string(g * 7 + 13),
                                 5000 + g, Hours(10), {}));
  }
  return seeds;
}

std::vector<Regression> MakeGroupProbes(size_t probes, size_t groups) {
  std::vector<Regression> out;
  out.reserve(probes);
  for (size_t p = 0; p < probes; ++p) {
    const size_t g = (p * (groups / probes)) % groups;  // Spread across groups.
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

  PrintHeader(std::string("Funnel throughput: fingerprints, flat SOM, indexed pairwise") +
              (smoke ? " [smoke]" : "") + (threads_sweep ? " [threads-sweep]" : ""));
  const unsigned hw_cores = std::thread::hardware_concurrency();
  std::printf("hardware cores: %u\n", hw_cores);

  // --- Threads sweep: the multicore rig (EXPERIMENTS.md) -----------------
  // Records the funnel's per-core-count curve into BENCH_scaling.json and
  // returns; the regular sections below are skipped so the sweep can run on
  // a machine reserved for scaling measurements.
  if (threads_sweep) {
    const size_t kBatches = smoke ? 2 : 3;
    const size_t kSurvivors = smoke ? 60 : 600;
    const size_t kFamilies = smoke ? 12 : 24;
    std::vector<std::vector<Regression>> batches;
    for (size_t b = 0; b < kBatches; ++b) {
      batches.push_back(MakeSurvivorBatch(b, kSurvivors, kFamilies));
    }
    const Duration tolerance = Hours(1);
    const FunnelResult baseline = RunNewFunnel(batches, tolerance, nullptr);
    const std::vector<int> threads_list = {1, 2, 4, 8};
    std::vector<double> sweep_ms;
    std::printf("\nfunnel threads sweep (%zu batches x %zu survivors)\n", kBatches,
                kSurvivors);
    for (int threads : threads_list) {
      ThreadPool pool(static_cast<size_t>(threads - 1));
      ThreadPool* pool_ptr = threads > 1 ? &pool : nullptr;
      const auto sweep_t0 = Clock::now();
      const FunnelResult result = RunNewFunnel(batches, tolerance, pool_ptr);
      const double ms = MillisSince(sweep_t0);
      // Byte-identical across thread counts (PR-5 determinism taxonomy).
      FBD_CHECK(result.admitted == baseline.admitted);
      FBD_CHECK(result.representatives == baseline.representatives);
      FBD_CHECK(result.groups == baseline.groups);
      FBD_CHECK(result.representative_metrics == baseline.representative_metrics);
      sweep_ms.push_back(ms);
      std::printf("    threads=%d: %8.1f ms   speedup vs 1: %.2fx\n", threads, ms,
                  sweep_ms[0] / ms);
    }
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

  // --- 1. Single-thread funnel: legacy vs fingerprint path --------------
  const size_t kBatches = smoke ? 2 : 3;
  const size_t kSurvivors = smoke ? 60 : 600;
  const size_t kFamilies = smoke ? 12 : 24;
  std::vector<std::vector<Regression>> batches;
  for (size_t b = 0; b < kBatches; ++b) {
    batches.push_back(MakeSurvivorBatch(b, kSurvivors, kFamilies));
  }
  const Duration tolerance = Hours(1);

  auto t0 = Clock::now();
  const FunnelResult legacy_result = RunLegacyFunnel(batches, tolerance);
  const double legacy_ms = MillisSince(t0);

  t0 = Clock::now();
  const FunnelResult new_result = RunNewFunnel(batches, tolerance, nullptr);
  const double new_ms = MillisSince(t0);

  // Robust output consistency: same funnel narrowing at every stage. (The
  // hashed TF-IDF's ulp-level embedding differences make per-double
  // comparisons meaningless; cluster counts and representative sets are the
  // meaningful contract.)
  FBD_CHECK(legacy_result.admitted == new_result.admitted);
  FBD_CHECK(legacy_result.representatives == new_result.representatives);
  FBD_CHECK(legacy_result.groups == new_result.groups);
  FBD_CHECK(legacy_result.representative_metrics == new_result.representative_metrics);

  const double funnel_speedup = legacy_ms / new_ms;
  std::printf("\n[1] single-thread funnel (%zu batches x %zu survivors, %zu families)\n",
              kBatches, kSurvivors, kFamilies);
  std::printf("    legacy: %8.1f ms   fingerprint: %8.1f ms   speedup: %.1fx\n", legacy_ms,
              new_ms, funnel_speedup);
  std::printf("    admitted: %zu  representatives: %zu  groups: %zu (identical)\n",
              new_result.admitted, new_result.representatives, new_result.groups);
  if (!smoke) {
    FBD_CHECK(funnel_speedup >= 2.0);
  }

  // --- 2. Thread scaling of the new funnel ------------------------------
  std::printf("\n[2] new-funnel thread scaling\n");
  std::vector<int> thread_counts = {1, 2, 4, 8};
  std::vector<double> thread_ms;
  for (int threads : thread_counts) {
    ThreadPool pool(static_cast<size_t>(threads - 1));
    ThreadPool* pool_ptr = threads > 1 ? &pool : nullptr;
    t0 = Clock::now();
    const FunnelResult result = RunNewFunnel(batches, tolerance, pool_ptr);
    const double ms = MillisSince(t0);
    thread_ms.push_back(ms);
    // Byte-identical across thread counts.
    FBD_CHECK(result.admitted == new_result.admitted);
    FBD_CHECK(result.representatives == new_result.representatives);
    FBD_CHECK(result.groups == new_result.groups);
    FBD_CHECK(result.representative_metrics == new_result.representative_metrics);
    std::printf("    threads=%d: %8.1f ms   speedup vs 1: %.2fx\n", threads, ms,
                thread_ms[0] / ms);
  }

  // --- 3. Pairwise ingest scaling in group count ------------------------
  std::printf("\n[3] pairwise ingest vs existing group count\n");
  std::vector<size_t> group_counts = smoke ? std::vector<size_t>{16, 64}
                                           : std::vector<size_t>{64, 256, 1024};
  const size_t kProbes = smoke ? 8 : 32;
  std::vector<double> scaling_legacy_ms;
  std::vector<double> scaling_indexed_ms;
  for (size_t groups : group_counts) {
    const std::vector<Regression> seeds = MakeGroupSeeds(groups);
    const std::vector<Regression> probes = MakeGroupProbes(kProbes, groups);

    legacy::PairwiseOracle oracle;
    oracle.Ingest(seeds);  // Seeding is untimed on both sides.
    t0 = Clock::now();
    const std::vector<int> oracle_new = oracle.Ingest(probes);
    const double oracle_ms = MillisSince(t0);

    PairwiseDedup indexed;
    indexed.Ingest(seeds);
    t0 = Clock::now();
    const std::vector<int> indexed_new = indexed.Ingest(probes);
    const double indexed_ms = MillisSince(t0);

    FBD_CHECK(oracle.groups().size() == indexed.groups().size());
    FBD_CHECK(oracle_new == indexed_new);
    scaling_legacy_ms.push_back(oracle_ms);
    scaling_indexed_ms.push_back(indexed_ms);
    std::printf("    G=%5zu (%zu probes)  all-pairs: %8.2f ms   indexed: %8.2f ms   "
                "speedup: %.1fx\n",
                groups, kProbes, oracle_ms, indexed_ms, oracle_ms / indexed_ms);
  }

  // --- JSON -------------------------------------------------------------
  FILE* json = std::fopen("BENCH_funnel.json", "w");
  FBD_CHECK(json != nullptr);
  std::fprintf(json, "{\n");
  WriteHardwareJson(json);
  std::fprintf(json, ",\n");
  std::fprintf(json, "  \"hardware_cores\": %u,\n", hw_cores);
  std::fprintf(json,
               "  \"funnel_single_thread\": {\"batches\": %zu, \"survivors_per_batch\": %zu, "
               "\"legacy_ms\": %.2f, \"new_ms\": %.2f, \"speedup\": %.2f},\n",
               kBatches, kSurvivors, legacy_ms, new_ms, funnel_speedup);
  std::fprintf(json, "  \"funnel_thread_scaling\": [\n");
  for (size_t i = 0; i < thread_counts.size(); ++i) {
    std::fprintf(json, "    {\"threads\": %d, \"ms\": %.2f, \"speedup_vs_1\": %.2f}%s\n",
                 thread_counts[i], thread_ms[i], thread_ms[0] / thread_ms[i],
                 i + 1 < thread_counts.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json, "  \"pairwise_group_scaling\": [\n");
  for (size_t i = 0; i < group_counts.size(); ++i) {
    std::fprintf(json,
                 "    {\"groups\": %zu, \"probes\": %zu, \"all_pairs_ms\": %.3f, "
                 "\"indexed_ms\": %.3f, \"speedup\": %.2f}%s\n",
                 group_counts[i], kProbes, scaling_legacy_ms[i], scaling_indexed_ms[i],
                 scaling_legacy_ms[i] / scaling_indexed_ms[i],
                 i + 1 < group_counts.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n");
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("\nwrote BENCH_funnel.json\n");
  return 0;
}
