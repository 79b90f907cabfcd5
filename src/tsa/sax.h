// Symbolic Aggregate approXimation (SAX), §5.2.2.
//
// SAX discretizes a real-valued series into a string: the value range is
// split into N equal-width buckets, each mapped to a letter ('a' is the
// lowest bucket). The paper's configuration is N=20 buckets with a validity
// rule: a bucket (letter) is "valid" only if it holds at least X% (3%) of the
// data points — this makes the representation robust to outliers.
//
// The went-away detector, this encoder's one user, compares SAX strings of
// different windows against the valid-letter alphabet of a reference window
// to decide whether two anomalies share a cause; it applies the validity rule
// itself, over its historical window (src/core/went_away.cc).
#ifndef FBDETECT_SRC_TSA_SAX_H_
#define FBDETECT_SRC_TSA_SAX_H_

#include <span>
#include <string>

namespace fbdetect {

struct SaxConfig {
  int num_buckets = 20;  // N in the paper.
};

class SaxEncoder {
 public:
  // Builds the bucket boundaries from a reference span (usually the full
  // window being analyzed): equal-width buckets over [min, max]. A constant
  // reference yields a single-bucket encoder that maps everything to 'a'.
  SaxEncoder(std::span<const double> reference, const SaxConfig& config);

  // Letter for one value. Values outside the reference range clamp to the
  // first/last bucket.
  char Encode(double value) const;

  // SAX string for a span of values.
  std::string EncodeSeries(std::span<const double> values) const;

  // Lower bound of the bucket for `letter`.
  double BucketLowerBound(char letter) const;

  int num_buckets() const { return config_.num_buckets; }

 private:
  int BucketIndex(double value) const;

  SaxConfig config_;
  double range_min_ = 0.0;
  double range_max_ = 0.0;
  double bucket_width_ = 0.0;
};

}  // namespace fbdetect

#endif  // FBDETECT_SRC_TSA_SAX_H_
