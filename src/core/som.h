// Self-Organizing Map (Kohonen, 1990) — the scalable clustering backbone of
// SOMDedup (§5.5.1). O(n) per epoch: each item updates its best-matching unit
// and that unit's grid neighborhood with a decaying learning rate and radius.
//
// The paper's key operational insight is hyperparameter robustness: a grid of
// L x L with L = ceil(n^(1/4)) works across workloads; SomGridSize implements
// that rule.
//
// Storage (PR 3): weights live in one flat contiguous buffer (grid*grid rows
// x dimensions columns, row-major) instead of a vector-of-vectors — BMU
// search is a linear sweep over one allocation. Items can likewise be passed
// as a FlatMatrix. Training is the classic sequential online Kohonen update,
// bit-exact with the historical nested-vector implementation (each item's
// update depends on all previous updates, so it is inherently serial).
// BestMatchingUnit / Assign are pure, and Assign parallelizes.
#ifndef FBDETECT_SRC_CORE_SOM_H_
#define FBDETECT_SRC_CORE_SOM_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/thread_pool.h"

namespace fbdetect {

// L = ceil(n^(1/4)); at least 1.
int SomGridSize(size_t num_items);

// Dense row-major matrix; the funnel's flat item layout (one row per
// regression feature vector).
struct FlatMatrix {
  size_t rows = 0;
  size_t cols = 0;
  std::vector<double> data;  // rows * cols, row-major.

  void Resize(size_t new_rows, size_t new_cols) {
    rows = new_rows;
    cols = new_cols;
    data.assign(rows * cols, 0.0);
  }
  std::span<const double> row(size_t r) const { return {data.data() + r * cols, cols}; }
  std::span<double> mutable_row(size_t r) { return {data.data() + r * cols, cols}; }
};

struct SomTrainConfig {
  int epochs = 30;
  double initial_learning_rate = 0.5;
  double final_learning_rate = 0.02;
  uint64_t seed = 7;
};

class SelfOrganizingMap {
 public:
  // grid x grid cells, each a weight vector of `dimensions`.
  SelfOrganizingMap(size_t dimensions, int grid, uint64_t seed);

  // Trains on the items. The nested-vector overload copies nothing — rows
  // are viewed in place.
  void Train(const std::vector<std::vector<double>>& items, const SomTrainConfig& config);
  void Train(const FlatMatrix& items, const SomTrainConfig& config);

  // Index (row * grid + col) of the cell closest to `item`.
  int BestMatchingUnit(std::span<const double> item) const;

  // Assigns every item to its BMU. The span overload writes into per-item
  // slots (out.size() == items.rows) and fans the search over `pool`;
  // results are byte-identical for any pool size.
  std::vector<int> Assign(const std::vector<std::vector<double>>& items) const;
  void Assign(const FlatMatrix& items, std::span<int> out, ThreadPool* pool = nullptr) const;

  int grid() const { return grid_; }
  size_t dimensions() const { return dimensions_; }
  size_t cell_count() const { return static_cast<size_t>(grid_) * static_cast<size_t>(grid_); }
  // Flat weight buffer, cell-major (cell c's weights at [c*dimensions,
  // (c+1)*dimensions)). Exposed for oracle tests.
  std::span<const double> weights() const { return weights_; }

 private:
  // Row accessor used by both Train overloads so online training is
  // bit-exact regardless of the item container.
  using RowFn = std::span<const double> (*)(const void* items, size_t index);

  void TrainOnline(const void* items, size_t num_items, RowFn row, const SomTrainConfig& config);
  void InitCellsFromItems(const void* items, size_t num_items, RowFn row, uint64_t seed);

  std::span<double> Cell(size_t c) { return {weights_.data() + c * dimensions_, dimensions_}; }
  std::span<const double> Cell(size_t c) const {
    return {weights_.data() + c * dimensions_, dimensions_};
  }

  size_t dimensions_;
  int grid_;
  std::vector<double> weights_;  // cell_count() x dimensions_, row-major.
};

}  // namespace fbdetect

#endif  // FBDETECT_SRC_CORE_SOM_H_
