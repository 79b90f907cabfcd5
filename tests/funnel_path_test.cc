// Oracle tests for the PR 3 funnel internals: hashed text features, the
// two-pointer AlignedPearson, the flat-buffer SOM, the slot-scored
// PairwiseDedup, and end-to-end funnel determinism across scan_threads.
//
// The `legacy` namespace holds verbatim reconstructions of the pre-change
// implementations (string-materializing grams, hash-map Pearson alignment,
// nested-vector SOM, all-pairs pairwise scan); the new code must reproduce
// their outputs exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/random.h"
#include "src/common/strings.h"
#include "src/common/thread_pool.h"
#include "src/core/fingerprint.h"
#include "src/core/pairwise_dedup.h"
#include "src/core/pipeline.h"
#include "src/core/som.h"
#include "src/core/som_dedup.h"
#include "src/core/workload_config.h"
#include "src/fleet/fleet.h"
#include "src/fleet/scenario.h"
#include "src/stats/correlation.h"
#include "src/stats/text.h"
#include "tests/stage_helpers.h"

namespace fbdetect {
namespace {

// ---------------------------------------------------------------------------
// Legacy oracles: the exact pre-change implementations.
// ---------------------------------------------------------------------------
namespace legacy {

std::string ToLowerAscii(std::string_view input) {
  std::string out(input);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

// Character n-grams of the lower-cased input. Inputs no longer than `n` yield
// the whole string as a single gram.
std::vector<std::string> CharNgrams(std::string_view input, int n) {
  std::vector<std::string> grams;
  const std::string lowered = ToLowerAscii(input);
  if (lowered.empty()) {
    return grams;
  }
  if (static_cast<int>(lowered.size()) <= n) {
    grams.push_back(lowered);
    return grams;
  }
  grams.reserve(lowered.size() - static_cast<size_t>(n) + 1);
  for (size_t i = 0; i + static_cast<size_t>(n) <= lowered.size(); ++i) {
    grams.push_back(lowered.substr(i, static_cast<size_t>(n)));
  }
  return grams;
}

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

// The string-keyed TF-IDF hasher as it existed before the hashed-gram path.
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

// Hash-map timestamp alignment + PearsonCorrelation over materialized arrays.
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

// The nested-vector SOM with sequential online training.
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

  double Distance2(const std::vector<double>& weights, const std::vector<double>& item) const {
    double d2 = 0.0;
    for (size_t i = 0; i < dimensions_; ++i) {
      const double d = weights[i] - item[i];
      d2 += d * d;
    }
    return d2;
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

  const std::vector<std::vector<double>>& cells() const { return cells_; }

 private:
  size_t dimensions_;
  int grid_;
  std::vector<std::vector<double>> cells_;
};

// The all-pairs pairwise dedup: every candidate scored against every group,
// recomputing text similarity from the metric strings each time.
class PairwiseOracle {
 public:
  explicit PairwiseOracle(PairwiseRule rule = {}) : rule_(rule) {}

  PairwiseScores Score(const Regression& candidate, const RegressionGroup& group) const {
    PairwiseScores scores;
    for (const Regression& member : group.members) {
      scores.pearson = std::max(scores.pearson, legacy::AlignedPearson(candidate, member));
      scores.text = std::max(
          scores.text,
          TextCosineSimilarity(candidate.metric.ToString(), member.metric.ToString()));
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
  std::vector<RegressionGroup> groups_;
};

}  // namespace legacy

// ---------------------------------------------------------------------------
// Shared fixtures.
// ---------------------------------------------------------------------------

Regression MakeRegression(const std::string& subroutine, double delta, double baseline,
                          const std::vector<double>& analysis,
                          std::vector<int64_t> causes = {}, size_t timestamp_offset = 0) {
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
    regression.analysis_timestamps.push_back(static_cast<TimePoint>(i + timestamp_offset) *
                                             Minutes(10));
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

std::vector<std::vector<double>> RandomItems(size_t n, size_t dims, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> items(n);
  for (auto& item : items) {
    item.resize(dims);
    for (double& v : item) {
      v = rng.Uniform(-1.0, 1.0);
    }
  }
  return items;
}

// ---------------------------------------------------------------------------
// Hashed text features.
// ---------------------------------------------------------------------------

TEST(StringsTest, ToLowerAscii) {
  EXPECT_EQ(legacy::ToLowerAscii("AbC-123"), "abc-123");
}

TEST(StringsTest, CharNgrams) {
  EXPECT_EQ(legacy::CharNgrams("abcd", 2), (std::vector<std::string>{"ab", "bc", "cd"}));
  EXPECT_EQ(legacy::CharNgrams("ab", 3), (std::vector<std::string>{"ab"}));
  EXPECT_TRUE(legacy::CharNgrams("", 2).empty());
}

TEST(HashedTextTest, HashGramsOfMatchesLegacyCharNgramHashes) {
  const std::vector<std::string> inputs = {
      "", "a", "ab", "abc", "AB", "TaoClient::fetchUserById",
      "svc/gcpu/sub_17", "aaaa", "x_Y_z", "gcpu|svc|TaoClient_fetch_user|meta/data"};
  for (const std::string& text : inputs) {
    std::map<uint64_t, double> expected;
    for (const std::string& gram : legacy::GramsOf(text)) {
      expected[legacy::HashGram(gram)] += 1.0;
    }
    HashedGrams grams;
    HashGramsOf(text, grams);
    // Sorted ascending and distinct.
    for (size_t i = 1; i < grams.size(); ++i) {
      EXPECT_LT(grams[i - 1].hash, grams[i].hash) << text;
    }
    ASSERT_EQ(grams.size(), expected.size()) << text;
    size_t i = 0;
    for (const auto& [hash, count] : expected) {
      EXPECT_EQ(grams[i].hash, hash) << text;
      EXPECT_EQ(grams[i].count, count) << text;
      ++i;
    }
  }
}

TEST(HashedTextTest, TokenVectorCosineBitExactWithTermVectorCosine) {
  const std::vector<std::pair<std::string, std::string>> pairs = {
      {"TaoClient::fetchUserById", "TaoClient::fetchUser"},
      {"alpha_module_run", "zeta_engine_step"},
      {"same_name", "same_name"},
      {"", "something"},
      {"one two two three", "two three three four"},
  };
  for (const auto& [a, b] : pairs) {
    const TokenVector ta = BuildTokenVector(TokenizeIdentifier(a));
    const TokenVector tb = BuildTokenVector(TokenizeIdentifier(b));
    // Counts are small integers, so every dot product / norm is an exact
    // integer-valued double regardless of summation order: bit-exact.
    EXPECT_EQ(CosineSimilarity(ta, tb), TextCosineSimilarity(a, b)) << a << " vs " << b;
  }
}

TEST(HashedTextTest, HashedTfIdfMatchesLegacyStringTfIdf) {
  const std::vector<std::string> corpus = {
      "gcpu|svc|TaoClient_fetch_user|",   "gcpu|svc|TaoClient_fetch_user_by_id|",
      "gcpu|svc|TaoClient_fetch_profile|", "gcpu|svc|zeta_engine_step|",
      "endpoint_cost|svc|api/get_user|",   "gcpu|svc|alpha_module_run|",
      "gcpu|svc|omega|",                   "walltime|svc|api/feed|region/west"};
  constexpr size_t kDims = 8;

  legacy::TfIdf reference(kDims);
  reference.Fit(corpus);

  // FitHashed over precomputed gram sets must behave like the string Fit.
  std::vector<HashedGrams> gram_sets(corpus.size());
  std::vector<const HashedGrams*> gram_ptrs;
  for (size_t d = 0; d < corpus.size(); ++d) {
    HashGramsOf(corpus[d], gram_sets[d]);
    gram_ptrs.push_back(&gram_sets[d]);
  }
  TfIdfHasher hashed(kDims);
  hashed.FitHashed(gram_ptrs);

  std::vector<double> embedded(kDims);
  for (size_t d = 0; d < corpus.size(); ++d) {
    const std::vector<double> expected = reference.Embed(corpus[d]);
    hashed.EmbedHashed(gram_sets[d], embedded);
    for (size_t i = 0; i < kDims; ++i) {
      // Same grams, same buckets, same IDF weights; only the accumulation
      // order differs (sorted hashes vs unordered_map iteration).
      EXPECT_NEAR(embedded[i], expected[i], 1e-12) << corpus[d] << " dim " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// AlignedPearson.
// ---------------------------------------------------------------------------

TEST(AlignedPearsonTest, BitExactWithLegacyHashMapAlignment) {
  const std::vector<double> shape_a = StepShape(0.05, 0.01, 48, 11, 0.002);
  const std::vector<double> shape_b = StepShape(0.05, 0.01, 48, 12, 0.002);

  // Fully aligned windows.
  const Regression a = MakeRegression("a", 0.01, 0.05, shape_a);
  const Regression b = MakeRegression("b", 0.01, 0.05, shape_b);
  EXPECT_EQ(AlignedPearson(a, b), legacy::AlignedPearson(a, b));
  EXPECT_EQ(AlignedPearson(a, a), legacy::AlignedPearson(a, a));

  // Partial overlap: b shifted by 10 ticks.
  const Regression b_shifted = MakeRegression("b", 0.01, 0.05, shape_b, {}, 10);
  EXPECT_EQ(AlignedPearson(a, b_shifted), legacy::AlignedPearson(a, b_shifted));
  EXPECT_EQ(AlignedPearson(b_shifted, a), legacy::AlignedPearson(b_shifted, a));

  // Disjoint windows -> 0 on both paths.
  const Regression b_disjoint = MakeRegression("b", 0.01, 0.05, shape_b, {}, 100);
  EXPECT_EQ(AlignedPearson(a, b_disjoint), 0.0);
  EXPECT_EQ(legacy::AlignedPearson(a, b_disjoint), 0.0);

  // Overlap below 8 points -> 0.
  const Regression b_thin = MakeRegression("b", 0.01, 0.05, shape_b, {}, 43);
  EXPECT_EQ(AlignedPearson(a, b_thin), 0.0);
  EXPECT_EQ(legacy::AlignedPearson(a, b_thin), 0.0);

  // Constant series: still bit-exact with the legacy path (the mean of n
  // equal binary-inexact values is not exactly the value, so the result is a
  // tiny residual, identical on both paths). An exactly-representable
  // constant (0.0) does hit the zero-variance guard.
  const Regression flat = MakeRegression("flat", 0.0, 0.05, std::vector<double>(48, 0.05));
  EXPECT_EQ(AlignedPearson(a, flat), legacy::AlignedPearson(a, flat));
  const Regression zero = MakeRegression("zero", 0.0, 0.0, std::vector<double>(48, 0.0));
  EXPECT_EQ(AlignedPearson(a, zero), legacy::AlignedPearson(a, zero));
  EXPECT_EQ(AlignedPearson(a, zero), 0.0);

  // Irregular (gappy) timestamps on one side: keep every third point of a.
  Regression gappy = a;
  Regression source = a;
  gappy.analysis.clear();
  gappy.analysis_timestamps.clear();
  for (size_t i = 0; i < source.analysis.size(); i += 3) {
    gappy.analysis.push_back(source.analysis[i]);
    gappy.analysis_timestamps.push_back(source.analysis_timestamps[i]);
  }
  EXPECT_EQ(AlignedPearson(gappy, b), legacy::AlignedPearson(gappy, b));

  // Empty analysis -> 0.
  Regression empty = a;
  empty.analysis.clear();
  empty.analysis_timestamps.clear();
  EXPECT_EQ(AlignedPearson(empty, b), 0.0);
}

TEST(AlignedPearsonDeathTest, TruncatedTimestampsFailTheInvariantCheck) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Regression a = MakeRegression("a", 0.01, 0.05, StepShape(0.05, 0.01, 48, 21));
  const Regression b = MakeRegression("b", 0.01, 0.05, StepShape(0.05, 0.01, 48, 22));
  // Silent truncation used to hide this mismatch; now it must fail loudly.
  a.analysis_timestamps.pop_back();
  EXPECT_DEATH(AlignedPearson(a, b), "FBD_CHECK failed");
  PairwiseDedup dedup;
  EXPECT_DEATH(dedup.Ingest(Fingerprinted({a})), "FBD_CHECK failed");
}

// ---------------------------------------------------------------------------
// Flat SOM.
// ---------------------------------------------------------------------------

TEST(FlatSomTest, OnlineTrainingMatchesLegacyNestedSom) {
  constexpr size_t kDims = 7;
  constexpr int kGrid = 3;
  constexpr uint64_t kSeed = 99;
  const std::vector<std::vector<double>> items = RandomItems(40, kDims, 5);

  legacy::NestedSom reference(kDims, kGrid, kSeed);
  SelfOrganizingMap som(kDims, kGrid, kSeed);

  // Identical RNG stream in the constructor.
  const std::span<const double> weights = som.weights();
  ASSERT_EQ(weights.size(), reference.cells().size() * kDims);
  for (size_t c = 0; c < reference.cells().size(); ++c) {
    for (size_t i = 0; i < kDims; ++i) {
      EXPECT_EQ(weights[c * kDims + i], reference.cells()[c][i]);
    }
  }

  // Identical training trajectory (same init stream, same update order).
  SomTrainConfig config;
  reference.Train(items, config);
  som.Train(items, config);
  for (size_t c = 0; c < reference.cells().size(); ++c) {
    for (size_t i = 0; i < kDims; ++i) {
      EXPECT_EQ(som.weights()[c * kDims + i], reference.cells()[c][i]) << c << "," << i;
    }
  }
  for (const std::vector<double>& item : items) {
    EXPECT_EQ(som.BestMatchingUnit(item), reference.BestMatchingUnit(item));
  }
}

TEST(FlatSomTest, FlatAndNestedContainersTrainIdentically) {
  constexpr size_t kDims = 5;
  const std::vector<std::vector<double>> items = RandomItems(30, kDims, 17);
  FlatMatrix flat;
  flat.Resize(items.size(), kDims);
  for (size_t r = 0; r < items.size(); ++r) {
    std::copy(items[r].begin(), items[r].end(), flat.mutable_row(r).begin());
  }

  const SomTrainConfig config;
  SelfOrganizingMap from_nested(kDims, 3, 42);
  SelfOrganizingMap from_flat(kDims, 3, 42);
  from_nested.Train(items, config);
  from_flat.Train(flat, config);
  ASSERT_EQ(from_nested.weights().size(), from_flat.weights().size());
  for (size_t i = 0; i < from_nested.weights().size(); ++i) {
    EXPECT_EQ(from_nested.weights()[i], from_flat.weights()[i]);
  }

  // Assign fans the BMU searches over the pool into per-item slots: the
  // same cells for any pool size, and the same as the nested overload.
  const std::vector<int> expected = from_nested.Assign(items);
  std::vector<int> serial(flat.rows);
  from_flat.Assign(flat, serial, nullptr);
  EXPECT_EQ(serial, expected);
  for (const size_t workers : {size_t{1}, size_t{7}}) {
    ThreadPool pool(workers);
    std::vector<int> parallel(flat.rows);
    from_flat.Assign(flat, parallel, &pool);
    EXPECT_EQ(parallel, expected) << "workers=" << workers;
  }
}

// ---------------------------------------------------------------------------
// PairwiseDedup: slot-scored ingest vs the all-pairs oracle.
// ---------------------------------------------------------------------------

// The regression of PairwiseWorkload whose metric string shares no token with
// any other (another service, another kind), shaped like the TaoClient group.
Regression ForeignLatencyRegression() {
  Regression foreign = MakeRegression("checkout", 0.01, 0.05,
                                      StepShape(0.05, 0.01, 48, 500, 0.0001));
  foreign.metric.service = "billing";
  foreign.metric.kind = MetricKind::kLatency;
  return foreign;
}

// Three batches mixing correlated shapes, related names, unrelated names, a
// non-gCPU metric kind, and a regression that shares no token with the rest.
std::vector<std::vector<Regression>> PairwiseWorkload() {
  std::vector<std::vector<Regression>> batches(3);
  batches[0].push_back(MakeRegression("TaoClient_fetch_user", 0.01, 0.05,
                                      StepShape(0.05, 0.01, 48, 500, 0.0001)));
  batches[0].push_back(MakeRegression("zeta_engine_step", 0.02, 0.06,
                                      StepShape(0.06, 0.02, 48, 501, 0.003)));
  Regression endpoint = MakeRegression("api/get_user", 0.05, 0.2,
                                       StepShape(0.2, 0.05, 48, 502, 0.001));
  endpoint.metric.kind = MetricKind::kEndpointCost;
  batches[0].push_back(endpoint);

  batches[1].push_back(ForeignLatencyRegression());
  batches[1].push_back(MakeRegression("TaoClient_fetch_user_by_id", 0.01, 0.05,
                                      StepShape(0.05, 0.01, 48, 500, 0.0001)));
  batches[1].push_back(MakeRegression("alpha_module_run", 0.01, 0.05,
                                      StepShape(0.05, 0.01, 48, 503, 0.002)));
  batches[1].push_back(MakeRegression("omega", 0.01, 0.05,
                                      StepShape(0.05, 0.01, 48, 500, 0.0001)));

  batches[2].push_back(MakeRegression("TaoClient_fetch_profile", 0.01, 0.05,
                                      StepShape(0.05, 0.01, 48, 500, 0.0001)));
  batches[2].push_back(MakeRegression("zeta_engine_warmup", 0.02, 0.06,
                                      StepShape(0.06, 0.02, 48, 501, 0.003)));
  Regression endpoint2 = MakeRegression("api/get_user_by_id", 0.05, 0.2,
                                        StepShape(0.2, 0.05, 48, 502, 0.001));
  endpoint2.metric.kind = MetricKind::kEndpointCost;
  batches[2].push_back(endpoint2);
  return batches;
}

void ExpectSameGroups(const std::vector<RegressionGroup>& expected,
                      const std::vector<RegressionGroup>& actual, const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t g = 0; g < expected.size(); ++g) {
    EXPECT_EQ(expected[g].group_id, actual[g].group_id) << label;
    ASSERT_EQ(expected[g].members.size(), actual[g].members.size()) << label << " group " << g;
    for (size_t m = 0; m < expected[g].members.size(); ++m) {
      EXPECT_EQ(expected[g].members[m].metric, actual[g].members[m].metric)
          << label << " group " << g << " member " << m;
    }
  }
}

void RunPairwiseOracleComparison(const PairwiseRule& rule, const std::string& label) {
  const std::vector<std::vector<Regression>> batches = PairwiseWorkload();

  legacy::PairwiseOracle oracle(rule);
  PairwiseDedup serial(rule);
  PairwiseDedup parallel(rule);
  ThreadPool pool(3);

  for (const std::vector<Regression>& batch : batches) {
    const std::vector<int> expected_new = oracle.Ingest(batch);
    const std::vector<int> serial_new = serial.Ingest(Fingerprinted(batch), nullptr);
    EXPECT_EQ(serial_new, expected_new) << label;
    const std::vector<int> parallel_new = parallel.Ingest(Fingerprinted(batch), &pool);
    EXPECT_EQ(parallel_new, expected_new) << label;
  }
  ExpectSameGroups(oracle.groups(), serial.groups(), label + " serial");
  ExpectSameGroups(oracle.groups(), parallel.groups(), label + " parallel");
}

TEST(PairwiseIngestTest, DefaultRuleMatchesAllPairsOracle) {
  RunPairwiseOracleComparison(PairwiseRule{}, "default rule");

  // The foreign regression correlates with the TaoClient group but shares no
  // token with it: text == 0, so the default rule scores it and rejects it.
  legacy::PairwiseOracle oracle;
  oracle.Ingest(PairwiseWorkload()[0]);
  const PairwiseScores scores = oracle.Score(ForeignLatencyRegression(), oracle.groups()[0]);
  EXPECT_EQ(scores.text, 0.0);
  EXPECT_GE(scores.pearson, PairwiseRule{}.min_pearson);
  EXPECT_FALSE(PairwiseRule{}.ShouldMerge(scores));
}

TEST(PairwiseIngestTest, PearsonOnlyRuleMatchesAllPairsOracle) {
  // min_text = 0 means Pearson alone can merge, so groups sharing no token
  // with the candidate (the foreign regression) can win the argmax.
  PairwiseRule rule;
  rule.min_text = 0.0;
  RunPairwiseOracleComparison(rule, "non-exclusionary rule");
}

// ---------------------------------------------------------------------------
// SOMDedup: pooled vs serial.
// ---------------------------------------------------------------------------

TEST(SomDedupFunnelTest, PooledMatchesSerialForAnyPoolSize) {
  std::vector<Regression> regressions;
  for (int i = 0; i < 12; ++i) {
    regressions.push_back(MakeRegression("caller_" + std::to_string(i), 0.01, 0.05,
                                         StepShape(0.05, 0.01, 48, 900 + i), {7}));
  }
  regressions.push_back(MakeRegression("sub_huge", 0.5, 0.2, StepShape(0.2, 0.5, 48, 950), {9}));

  const SomDedup dedup;
  const std::vector<FunnelCandidate> reference =
      dedup.Deduplicate(Fingerprinted(regressions), nullptr);

  for (const size_t workers : {size_t{1}, size_t{3}}) {
    ThreadPool pool(workers);
    const std::vector<FunnelCandidate> result =
        dedup.Deduplicate(Fingerprinted(regressions), &pool);
    ASSERT_EQ(result.size(), reference.size()) << "workers=" << workers;
    for (size_t i = 0; i < reference.size(); ++i) {
      const Regression& expected = reference[i].regression;
      EXPECT_EQ(result[i].regression.metric, expected.metric) << "workers=" << workers;
      EXPECT_EQ(result[i].regression.som_cluster, expected.som_cluster);
      EXPECT_EQ(result[i].regression.merged_count, expected.merged_count);
      EXPECT_EQ(result[i].regression.importance, expected.importance);
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end funnel determinism.
// ---------------------------------------------------------------------------

// Compact single-service world (same construction as pipeline_test.cc).
struct World {
  FleetSimulator fleet;
  ServiceSimulator* service = nullptr;
  std::string regressed_subroutine;

  static constexpr Duration kDuration = Days(4);

  explicit World(uint64_t seed) {
    ServiceConfig config;
    config.name = "svc";
    config.num_servers = 200;
    config.call_graph.num_subroutines = 80;
    config.sampling.samples_per_bucket = 2000000;
    config.sampling.bucket_width = Minutes(10);
    config.tick = Minutes(10);
    config.num_seasonal_subroutines = 10;
    config.seasonal_mix_amplitude = 0.10;
    config.seed = seed;
    service = fleet.AddService(config);

    const CallGraph& graph = service->graph();
    const std::vector<double> reach = graph.ReachProbabilities();
    std::vector<NodeId> mid;
    for (size_t i = 0; i < reach.size(); ++i) {
      if (reach[i] > 0.003 && reach[i] < 0.10 && graph.edges(static_cast<NodeId>(i)).empty()) {
        mid.push_back(static_cast<NodeId>(i));
      }
    }
    regressed_subroutine = graph.node(mid[0]).name;

    InjectedEvent regression;
    regression.kind = EventKind::kStepRegression;
    regression.service = "svc";
    regression.subroutine = regressed_subroutine;
    regression.start = Days(2) + Hours(13);
    regression.magnitude = 0.4;
    Commit commit;
    commit.time = regression.start - Minutes(20);
    commit.title = "Add extra processing to " + regressed_subroutine;
    commit.description = "Expands validation in " + regressed_subroutine;
    commit.touched_subroutines = {regressed_subroutine};
    fleet.InjectEvent(regression, &commit);

    fleet.Run(0, kDuration);
  }

  PipelineOptions Options() const {
    PipelineOptions options;
    options.detection.threshold = 0.0005;
    options.detection.windows.historical = Days(2);
    options.detection.windows.analysis = Hours(4);
    options.detection.windows.extended = Hours(2);
    options.detection.rerun_interval = Hours(4);
    return options;
  }
};

void ExpectSameFunnel(const FunnelStats& a, const FunnelStats& b, const std::string& label) {
  EXPECT_EQ(a.change_points, b.change_points) << label;
  EXPECT_EQ(a.after_went_away, b.after_went_away) << label;
  EXPECT_EQ(a.after_seasonality, b.after_seasonality) << label;
  EXPECT_EQ(a.after_threshold, b.after_threshold) << label;
  EXPECT_EQ(a.after_same_merger, b.after_same_merger) << label;
  EXPECT_EQ(a.after_som_dedup, b.after_som_dedup) << label;
  EXPECT_EQ(a.after_cost_shift, b.after_cost_shift) << label;
  EXPECT_EQ(a.after_pairwise, b.after_pairwise) << label;
}

TEST(FunnelDeterminismTest, ReportsAndCountersByteIdenticalAcrossScanThreads) {
  World world(6);
  CallGraphCodeInfo code_info(&world.service->graph());

  PipelineOptions options = world.Options();
  options.scan_threads = 1;
  Pipeline reference(&world.fleet.db(), &world.fleet.change_log(), &code_info, options);
  const std::vector<Regression> reference_reports =
      reference.RunPeriod("svc", Days(2), World::kDuration);
  ASSERT_FALSE(reference_reports.empty());

  for (const int threads : {2, 8}) {
    PipelineOptions parallel_options = world.Options();
    parallel_options.scan_threads = threads;
    Pipeline parallel(&world.fleet.db(), &world.fleet.change_log(), &code_info,
                      parallel_options);
    const std::vector<Regression> reports =
        parallel.RunPeriod("svc", Days(2), World::kDuration);
    const std::string label = "scan_threads=" + std::to_string(threads);

    ASSERT_EQ(reports.size(), reference_reports.size()) << label;
    for (size_t i = 0; i < reports.size(); ++i) {
      const Regression& expected = reference_reports[i];
      const Regression& actual = reports[i];
      EXPECT_EQ(actual.metric, expected.metric) << label;
      EXPECT_EQ(actual.long_term, expected.long_term) << label;
      EXPECT_EQ(actual.detected_at, expected.detected_at) << label;
      EXPECT_EQ(actual.change_time, expected.change_time) << label;
      EXPECT_EQ(actual.change_index, expected.change_index) << label;
      EXPECT_EQ(actual.baseline_mean, expected.baseline_mean) << label;
      EXPECT_EQ(actual.regressed_mean, expected.regressed_mean) << label;
      EXPECT_EQ(actual.delta, expected.delta) << label;
      EXPECT_EQ(actual.relative_delta, expected.relative_delta) << label;
      EXPECT_EQ(actual.p_value, expected.p_value) << label;
      EXPECT_EQ(actual.analysis, expected.analysis) << label;
      EXPECT_EQ(actual.analysis_timestamps, expected.analysis_timestamps) << label;
      EXPECT_EQ(actual.candidate_root_causes, expected.candidate_root_causes) << label;
      EXPECT_EQ(actual.importance, expected.importance) << label;
      EXPECT_EQ(actual.som_cluster, expected.som_cluster) << label;
      EXPECT_EQ(actual.merged_count, expected.merged_count) << label;
      ASSERT_EQ(actual.root_causes.size(), expected.root_causes.size()) << label;
      for (size_t c = 0; c < expected.root_causes.size(); ++c) {
        EXPECT_EQ(actual.root_causes[c].commit_id, expected.root_causes[c].commit_id) << label;
        EXPECT_EQ(actual.root_causes[c].score, expected.root_causes[c].score) << label;
      }
    }
    ExpectSameFunnel(reference.short_term_funnel(), parallel.short_term_funnel(),
                     label + " short");
    ExpectSameFunnel(reference.long_term_funnel(), parallel.long_term_funnel(),
                     label + " long");
    ASSERT_EQ(parallel.groups().size(), reference.groups().size()) << label;
    for (size_t g = 0; g < reference.groups().size(); ++g) {
      EXPECT_EQ(parallel.groups()[g].members.size(), reference.groups()[g].members.size())
          << label;
    }
  }
}

}  // namespace
}  // namespace fbdetect
