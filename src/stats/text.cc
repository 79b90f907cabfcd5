#include "src/stats/text.h"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "src/common/check.h"
#include "src/common/strings.h"

namespace fbdetect {
namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

inline char LowerAscii(char c) {
  return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
}

// FNV-1a over the gram bytes; stable across platforms and runs.
uint64_t HashGram(std::string_view gram) {
  uint64_t hash = kFnvOffset;
  for (char c : gram) {
    hash ^= static_cast<uint8_t>(c);
    hash *= kFnvPrime;
  }
  return hash;
}

// FNV-1a of the lower-cased window [begin, begin + n) of `text`, without
// materializing the gram.
uint64_t HashLoweredWindow(std::string_view text, size_t begin, size_t n) {
  uint64_t hash = kFnvOffset;
  for (size_t i = begin; i < begin + n; ++i) {
    hash ^= static_cast<uint8_t>(LowerAscii(text[i]));
    hash *= kFnvPrime;
  }
  return hash;
}

// Appends the hashes of the lower-cased n-grams of `text`. Empty input
// contributes nothing; input no longer than n contributes the whole string
// once.
void AppendNgramHashes(std::string_view text, size_t n, HashedGrams& out) {
  if (text.empty()) {
    return;
  }
  if (text.size() <= n) {
    out.push_back({HashLoweredWindow(text, 0, text.size()), 1.0});
    return;
  }
  for (size_t i = 0; i + n <= text.size(); ++i) {
    out.push_back({HashLoweredWindow(text, i, n), 1.0});
  }
}

// Sorts by hash and merges duplicates, summing counts in source order.
void SortAndMerge(HashedGrams& grams) {
  std::sort(grams.begin(), grams.end(),
            [](const HashedGram& a, const HashedGram& b) { return a.hash < b.hash; });
  size_t out = 0;
  for (size_t i = 0; i < grams.size();) {
    size_t j = i + 1;
    double count = grams[i].count;
    while (j < grams.size() && grams[j].hash == grams[i].hash) {
      count += grams[j].count;
      ++j;
    }
    grams[out++] = {grams[i].hash, count};
    i = j;
  }
  grams.resize(out);
}

}  // namespace

TermVector BuildTermVector(const std::vector<std::string>& tokens) {
  TermVector vector;
  for (const std::string& token : tokens) {
    vector[token] += 1.0;
  }
  return vector;
}

double CosineSimilarity(const TermVector& a, const TermVector& b) {
  if (a.empty() || b.empty()) {
    return 0.0;
  }
  const TermVector& smaller = a.size() <= b.size() ? a : b;
  const TermVector& larger = a.size() <= b.size() ? b : a;
  double dot = 0.0;
  for (const auto& [term, weight] : smaller) {
    const auto it = larger.find(term);
    if (it != larger.end()) {
      dot += weight * it->second;
    }
  }
  if (dot == 0.0) {
    return 0.0;
  }
  double norm_a = 0.0;
  for (const auto& [term, weight] : a) {
    norm_a += weight * weight;
  }
  double norm_b = 0.0;
  for (const auto& [term, weight] : b) {
    norm_b += weight * weight;
  }
  return dot / (std::sqrt(norm_a) * std::sqrt(norm_b));
}

double TextCosineSimilarity(std::string_view a, std::string_view b) {
  return CosineSimilarity(BuildTermVector(TokenizeIdentifier(a)),
                          BuildTermVector(TokenizeIdentifier(b)));
}

uint64_t HashTerm(std::string_view term) { return HashGram(term); }

void HashGramsOf(std::string_view text, HashedGrams& out) {
  out.clear();
  AppendNgramHashes(text, 2, out);
  AppendNgramHashes(text, 3, out);
  SortAndMerge(out);
}

TokenVector BuildTokenVector(const std::vector<std::string>& tokens) {
  TokenVector vector;
  vector.terms.reserve(tokens.size());
  for (const std::string& token : tokens) {
    vector.terms.push_back({HashTerm(token), 1.0});
  }
  SortAndMerge(vector.terms);
  for (const HashedGram& term : vector.terms) {
    vector.norm2 += term.count * term.count;
  }
  return vector;
}

double CosineSimilarity(const TokenVector& a, const TokenVector& b) {
  if (a.empty() || b.empty()) {
    return 0.0;
  }
  double dot = 0.0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.terms.size() && j < b.terms.size()) {
    if (a.terms[i].hash < b.terms[j].hash) {
      ++i;
    } else if (b.terms[j].hash < a.terms[i].hash) {
      ++j;
    } else {
      dot += a.terms[i].count * b.terms[j].count;
      ++i;
      ++j;
    }
  }
  if (dot == 0.0) {
    return 0.0;
  }
  return dot / (std::sqrt(a.norm2) * std::sqrt(b.norm2));
}

TfIdfHasher::TfIdfHasher(size_t dimensions) : dimensions_(dimensions) {
  FBD_CHECK(dimensions > 0);
}

void TfIdfHasher::FitHashed(std::span<const HashedGrams* const> corpus) {
  corpus_size_ = corpus.size();
  document_frequency_.clear();
  for (const HashedGrams* document : corpus) {
    for (const HashedGram& gram : *document) {  // Already distinct per document.
      ++document_frequency_[gram.hash];
    }
  }
}

void TfIdfHasher::EmbedHashed(const HashedGrams& grams, std::span<double> out) const {
  FBD_CHECK(out.size() == dimensions_);
  std::fill(out.begin(), out.end(), 0.0);
  for (const HashedGram& gram : grams) {
    double weight = gram.count;
    if (corpus_size_ > 0) {
      const auto it = document_frequency_.find(gram.hash);
      const double df = it != document_frequency_.end() ? static_cast<double>(it->second) : 0.0;
      // Smoothed IDF so unseen grams still contribute.
      weight *= std::log((1.0 + static_cast<double>(corpus_size_)) / (1.0 + df)) + 1.0;
    }
    out[gram.hash % dimensions_] += weight;
  }
  // L2-normalize so SOM distances compare shapes, not string lengths.
  double norm = 0.0;
  for (double v : out) {
    norm += v * v;
  }
  if (norm > 0.0) {
    norm = std::sqrt(norm);
    for (double& v : out) {
      v /= norm;
    }
  }
}

}  // namespace fbdetect
