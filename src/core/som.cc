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

void SelfOrganizingMap::TrainBatch(const void* items, size_t num_items, RowFn row,
                                   const SomTrainConfig& config, ThreadPool* pool) {
  InitCellsFromItems(items, num_items, row, config.seed);
  const int epochs = std::max(1, config.epochs);
  const double initial_radius = std::max(1.0, static_cast<double>(grid_) / 2.0);
  const size_t cells = cell_count();
  std::vector<int> bmu(num_items);
  // Per-cell accumulator rows (numerator vectors); written by one task each.
  FlatMatrix numerators;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    const double progress = static_cast<double>(epoch) / static_cast<double>(epochs);
    const double lr = config.initial_learning_rate +
                      (config.final_learning_rate - config.initial_learning_rate) * progress;
    const double radius = std::max(0.5, initial_radius * (1.0 - progress));
    const double radius2 = radius * radius;
    // Phase 1: all BMU searches against the epoch-start weights, in parallel
    // into per-item slots. A single BMU search is ~a microsecond, so small
    // cohorts stay on the calling thread (granularity floor) instead of
    // paying a pool wake per epoch.
    ParallelIndexFor(
        num_items, pool,
        [&](size_t index) { bmu[index] = BestMatchingUnit(row(items, index)); },
        kMinBmuSearchesPerLane);
    // Phase 2: per-cell reduction. Each cell sums its neighborhood-weighted
    // items in ascending item order — the result depends only on the bmu
    // slots, never on task scheduling.
    numerators.Resize(cells, dimensions_);
    // Each cell's reduction walks every item, so the per-cell work scales
    // with the cohort: only tiny cohorts (where a 3x3..5x5 grid's total work
    // is a few microseconds) fall back to the serial path.
    const size_t min_cells_per_lane = num_items >= 64 ? 1 : 8;
    ParallelIndexFor(
        cells, pool,
        [&](size_t cell_index) {
      const int cell_row = static_cast<int>(cell_index) / grid_;
      const int cell_col = static_cast<int>(cell_index) % grid_;
      const std::span<double> numerator = numerators.mutable_row(cell_index);
      double denominator = 0.0;
      for (size_t index = 0; index < num_items; ++index) {
        const int bmu_row = bmu[index] / grid_;
        const int bmu_col = bmu[index] % grid_;
        const double dr = static_cast<double>(cell_row - bmu_row);
        const double dc = static_cast<double>(cell_col - bmu_col);
        const double grid_d2 = dr * dr + dc * dc;
        if (grid_d2 > radius2) {
          continue;
        }
        const double influence = std::exp(-grid_d2 / (2.0 * radius2));
        denominator += influence;
        const std::span<const double> item = row(items, index);
        for (size_t i = 0; i < dimensions_; ++i) {
          numerator[i] += influence * item[i];
        }
      }
      if (denominator > 0.0) {
        const std::span<double> cell = Cell(cell_index);
        for (size_t i = 0; i < dimensions_; ++i) {
          cell[i] += lr * (numerator[i] / denominator - cell[i]);
        }
      }
        },
        min_cells_per_lane);
  }
}

void SelfOrganizingMap::Train(const std::vector<std::vector<double>>& items,
                              const SomTrainConfig& config, ThreadPool* pool) {
  if (items.empty()) {
    return;
  }
  if (config.batch) {
    TrainBatch(&items, items.size(), &NestedRow, config, pool);
  } else {
    TrainOnline(&items, items.size(), &NestedRow, config);
  }
}

void SelfOrganizingMap::Train(const FlatMatrix& items, const SomTrainConfig& config,
                              ThreadPool* pool) {
  if (items.rows == 0) {
    return;
  }
  FBD_CHECK(items.cols == dimensions_);
  if (config.batch) {
    TrainBatch(&items, items.rows, &FlatRow, config, pool);
  } else {
    TrainOnline(&items, items.rows, &FlatRow, config);
  }
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
