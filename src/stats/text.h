// Text-feature machinery:
// * Sparse term-frequency vectors with cosine similarity (§5.5.2's "text
//   cosine similarity" feature and §5.6's regression/change text matching).
// * A TF-IDF model over character n-grams of metric IDs, hashed to a dense
//   integer signature, matching §5.5.1's "convert metric IDs into integers
//   using TF-IDF with 2- and 3-gram lengths".
//
// Two representations coexist:
// * String-keyed TermVector — the readable form the root-cause text matching
//   uses.
// * Hash-keyed TokenVector / HashedGrams — the funnel's hot-path form: terms
//   and 2/3-grams are reduced to 64-bit FNV-1a hashes without materializing a
//   std::string per gram, precomputed once per regression in its
//   RegressionFingerprint and reused by every downstream stage.
#ifndef FBDETECT_SRC_STATS_TEXT_H_
#define FBDETECT_SRC_STATS_TEXT_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace fbdetect {

// Sparse bag-of-terms vector.
using TermVector = std::unordered_map<std::string, double>;

// Builds a term-frequency vector from word tokens (see TokenizeIdentifier).
TermVector BuildTermVector(const std::vector<std::string>& tokens);

// Cosine similarity of two sparse vectors; 0.0 when either is empty.
double CosineSimilarity(const TermVector& a, const TermVector& b);

// Convenience: tokenize both texts and return their cosine similarity.
double TextCosineSimilarity(std::string_view a, std::string_view b);

// Stable FNV-1a 64-bit hash of a term's bytes (no case folding; callers hash
// already-lowered tokens).
uint64_t HashTerm(std::string_view term);

// One distinct hashed gram (or token) and its multiplicity in the source
// string.
struct HashedGram {
  uint64_t hash = 0;
  double count = 0.0;

  friend bool operator==(const HashedGram&, const HashedGram&) = default;
};

// Distinct hashed grams sorted ascending by hash. The deterministic order
// makes downstream dot products / embeddings independent of hash-map
// iteration order, which is what keeps the parallel funnel byte-identical
// across thread counts.
using HashedGrams = std::vector<HashedGram>;

// The hashed 2- and 3-character-gram multiset of `text`, lower-cased on the
// fly (no per-gram string materialization). Input no longer than n
// contributes the whole lowered string as a single gram for that n. `out` is
// cleared first; capacity is reused.
void HashGramsOf(std::string_view text, HashedGrams& out);

// Hash-keyed term-frequency vector with its precomputed squared L2 norm.
// `terms` is sorted ascending by hash (same determinism rationale as
// HashedGrams). Cosine between two of these involves only a merge-intersect
// — no hashing, no lookups.
struct TokenVector {
  HashedGrams terms;
  double norm2 = 0.0;

  bool empty() const { return terms.empty(); }
};

// Hash-keyed equivalent of BuildTermVector. Counts are exact small integers,
// so cosine dot products are bit-identical to the string-keyed path
// regardless of summation order.
TokenVector BuildTokenVector(const std::vector<std::string>& tokens);

// Cosine similarity of two hashed term vectors; 0.0 when either is empty or
// they share no term.
double CosineSimilarity(const TokenVector& a, const TokenVector& b);

// TF-IDF embedding of strings into a fixed-dimension dense vector using
// hashed character 2- and 3-grams (HashGramsOf). The model is fitted on a
// corpus (to learn document frequencies) and then embeds any gram set;
// SOMDedup feeds these dense vectors into the map. Document frequencies are
// keyed by gram hash, so a fitted model never stores gram strings.
class TfIdfHasher {
 public:
  explicit TfIdfHasher(size_t dimensions);

  // Learns document frequencies from pre-hashed gram sets (one per
  // document); the funnel fits on the fingerprints' cached grams.
  void FitHashed(std::span<const HashedGrams* const> corpus);

  // Allocation-free embedding of a pre-hashed gram set into `out`, which
  // must have exactly `dimensions()` elements (zeroed by this call). Uses IDF
  // weights when fitted; otherwise plain TF.
  void EmbedHashed(const HashedGrams& grams, std::span<double> out) const;

  size_t dimensions() const { return dimensions_; }

 private:
  size_t dimensions_;
  size_t corpus_size_ = 0;
  std::unordered_map<uint64_t, size_t> document_frequency_;
};

}  // namespace fbdetect

#endif  // FBDETECT_SRC_STATS_TEXT_H_
