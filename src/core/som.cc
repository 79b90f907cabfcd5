#include "src/core/som.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/common/random.h"

namespace fbdetect {
namespace {

std::span<const double> NestedRow(const void* items, size_t index) {
  return (*static_cast<const std::vector<std::vector<double>>*>(items))[index];
}

std::span<const double> FlatRow(const void* items, size_t index) {
  return static_cast<const FlatMatrix*>(items)->row(index);
}

// Granularity floor for fanning BMU searches over the pool: one search costs
// roughly cells x dims mul+adds (~a microsecond for funnel-sized maps), so a
// lane below this many items loses more to the pool wake than it gains.
constexpr size_t kMinBmuSearchesPerLane = 8;

}  // namespace

int SomGridSize(size_t num_items) {
  if (num_items == 0) {
    return 1;
  }
  return std::max(1, static_cast<int>(std::ceil(std::pow(static_cast<double>(num_items), 0.25))));
}

SelfOrganizingMap::SelfOrganizingMap(size_t dimensions, int grid, uint64_t seed)
    : dimensions_(dimensions), grid_(std::max(1, grid)) {
  FBD_CHECK(dimensions > 0);
  Rng rng(seed);
  weights_.resize(cell_count() * dimensions_);
  for (double& w : weights_) {  // Same fill order as the nested layout.
    w = rng.Uniform(-0.1, 0.1);
  }
}

int SelfOrganizingMap::BestMatchingUnit(std::span<const double> item) const {
  FBD_CHECK(item.size() == dimensions_);
  const size_t cells = cell_count();
  // The distance sweep over the flat weight buffer is the SOM hot loop. Each
  // cell accumulates in ascending dimension order (bit-exact with the
  // historical nested-vector implementation), and strict '<' keeps the first
  // minimum, preserving the historical tie-break and NaN semantics.
  int best = 0;
  double best_d2 = 0.0;
  for (size_t c = 0; c < cells; ++c) {
    const double* row = weights_.data() + c * dimensions_;
    double d2 = 0.0;
    for (size_t d = 0; d < dimensions_; ++d) {
      const double diff = row[d] - item[d];
      d2 += diff * diff;
    }
    if (c == 0 || d2 < best_d2) {
      best_d2 = d2;
      best = static_cast<int>(c);
    }
  }
  return best;
}

void SelfOrganizingMap::InitCellsFromItems(const void* items, size_t num_items, RowFn row,
                                           uint64_t seed) {
  // Initialize cells from random items so the map starts in-distribution.
  // Same RNG stream and assignment order as the historical implementation.
  Rng rng(seed);
  const size_t cells = cell_count();
  for (size_t c = 0; c < cells; ++c) {
    const std::span<const double> item = row(items, rng.NextUint64(num_items));
    FBD_CHECK(item.size() == dimensions_);
    std::copy(item.begin(), item.end(), Cell(c).begin());
  }
}

void SelfOrganizingMap::TrainOnline(const void* items, size_t num_items, RowFn row,
                                    const SomTrainConfig& config) {
  InitCellsFromItems(items, num_items, row, config.seed);
  const int epochs = std::max(1, config.epochs);
  const double initial_radius = std::max(1.0, static_cast<double>(grid_) / 2.0);
  for (int epoch = 0; epoch < epochs; ++epoch) {
    const double progress = static_cast<double>(epoch) / static_cast<double>(epochs);
    const double lr = config.initial_learning_rate +
                      (config.final_learning_rate - config.initial_learning_rate) * progress;
    const double radius = std::max(0.5, initial_radius * (1.0 - progress));
    const double radius2 = radius * radius;
    for (size_t index = 0; index < num_items; ++index) {
      const std::span<const double> item = row(items, index);
      const int bmu = BestMatchingUnit(item);
      const int bmu_row = bmu / grid_;
      const int bmu_col = bmu % grid_;
      for (int r = 0; r < grid_; ++r) {
        for (int c = 0; c < grid_; ++c) {
          const double dr = static_cast<double>(r - bmu_row);
          const double dc = static_cast<double>(c - bmu_col);
          const double grid_d2 = dr * dr + dc * dc;
          if (grid_d2 > radius2) {
            continue;
          }
          const double influence = std::exp(-grid_d2 / (2.0 * radius2));
          const std::span<double> cell = Cell(static_cast<size_t>(r * grid_ + c));
          for (size_t i = 0; i < dimensions_; ++i) {
            cell[i] += lr * influence * (item[i] - cell[i]);
          }
        }
      }
    }
  }
}

void SelfOrganizingMap::Train(const std::vector<std::vector<double>>& items,
                              const SomTrainConfig& config) {
  if (items.empty()) {
    return;
  }
  TrainOnline(&items, items.size(), &NestedRow, config);
}

void SelfOrganizingMap::Train(const FlatMatrix& items, const SomTrainConfig& config) {
  if (items.rows == 0) {
    return;
  }
  FBD_CHECK(items.cols == dimensions_);
  TrainOnline(&items, items.rows, &FlatRow, config);
}

std::vector<int> SelfOrganizingMap::Assign(const std::vector<std::vector<double>>& items) const {
  std::vector<int> assignment;
  assignment.reserve(items.size());
  for (const std::vector<double>& item : items) {
    assignment.push_back(BestMatchingUnit(item));
  }
  return assignment;
}

void SelfOrganizingMap::Assign(const FlatMatrix& items, std::span<int> out,
                               ThreadPool* pool) const {
  FBD_CHECK(out.size() == items.rows);
  FBD_CHECK(items.rows == 0 || items.cols == dimensions_);
  ParallelIndexFor(
      items.rows, pool,
      [&](size_t index) { out[index] = BestMatchingUnit(items.row(index)); },
      kMinBmuSearchesPerLane);
}

}  // namespace fbdetect
