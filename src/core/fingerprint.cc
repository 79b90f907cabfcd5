#include "src/core/fingerprint.h"

#include "src/common/random.h"
#include "src/common/strings.h"
#include "src/stats/descriptive.h"
#include "src/stats/fourier.h"

namespace fbdetect {
namespace {

// Stable 64-bit hash for commit-id bitmap bucketing.
uint64_t MixCommitId(int64_t id) {
  uint64_t state = static_cast<uint64_t>(id) + 0x9e3779b97f4a7c15ULL;
  return SplitMix64(state);
}

}  // namespace

RegressionFingerprint ComputeFingerprint(const Regression& regression) {
  RegressionFingerprint fingerprint;
  fingerprint.metric_string = regression.metric.ToString();
  fingerprint.tokens = BuildTokenVector(TokenizeIdentifier(fingerprint.metric_string));
  HashGramsOf(fingerprint.metric_string, fingerprint.grams);
  // Shape features, in the order the pre-fingerprint SOMDedup built them.
  std::vector<double>& features = fingerprint.som_base;
  const std::vector<double> fourier =
      FourierMagnitudes(regression.analysis, kFourierCoefficients);
  features.insert(features.end(), fourier.begin(), fourier.end());
  features.push_back(SampleVariance(regression.analysis));
  features.push_back(regression.analysis.empty()
                         ? 0.0
                         : static_cast<double>(regression.change_index) /
                               static_cast<double>(regression.analysis.size()));
  features.push_back(regression.delta);
  features.push_back(regression.relative_delta);
  // Candidate-root-cause bitmap (hashed to a fixed width).
  const size_t bitmap_begin = features.size();
  features.resize(bitmap_begin + kRootCauseBitmapDims, 0.0);
  for (int64_t commit : regression.candidate_root_causes) {
    features[bitmap_begin + MixCommitId(commit) % kRootCauseBitmapDims] = 1.0;
  }
  return fingerprint;
}

}  // namespace fbdetect
