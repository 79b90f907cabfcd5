#include "src/tsa/sax.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/stats/descriptive.h"

namespace fbdetect {

SaxEncoder::SaxEncoder(std::span<const double> reference, const SaxConfig& config)
    : config_(config) {
  FBD_CHECK(config_.num_buckets >= 1 && config_.num_buckets <= 26);
  if (reference.empty()) {
    range_min_ = 0.0;
    range_max_ = 0.0;
  } else {
    range_min_ = Min(reference);
    range_max_ = Max(reference);
  }
  if (range_max_ <= range_min_) {
    // Degenerate reference: one bucket covering everything.
    config_.num_buckets = 1;
  }
  bucket_width_ = (range_max_ - range_min_) / static_cast<double>(config_.num_buckets);
}

int SaxEncoder::BucketIndex(double value) const {
  if (bucket_width_ <= 0.0) {
    return 0;
  }
  // Non-finite values never fit a bucket, and static_cast<int> of a NaN or
  // out-of-int-range offset is undefined behavior — clamp in double space
  // before converting. NaN maps to the first bucket (both comparisons below
  // are false), +-Inf to the edge buckets.
  const double offset = (value - range_min_) / bucket_width_;
  if (offset >= static_cast<double>(config_.num_buckets - 1)) {
    return config_.num_buckets - 1;
  }
  if (offset >= 1.0) {
    return static_cast<int>(offset);
  }
  return 0;
}

char SaxEncoder::Encode(double value) const {
  return static_cast<char>('a' + BucketIndex(value));
}

std::string SaxEncoder::EncodeSeries(std::span<const double> values) const {
  std::string encoded;
  encoded.reserve(values.size());
  for (double v : values) {
    encoded.push_back(Encode(v));
  }
  return encoded;
}

double SaxEncoder::BucketLowerBound(char letter) const {
  const int bucket = std::clamp(letter - 'a', 0, config_.num_buckets - 1);
  return range_min_ + static_cast<double>(bucket) * bucket_width_;
}

}  // namespace fbdetect
