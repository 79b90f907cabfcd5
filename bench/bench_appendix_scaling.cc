// Appendix A.2 reproduction: the detection-threshold law
//     Delta_threshold ∝ sqrt(sigma^2 / n).
//
// For a grid of (sigma^2, n) we find the empirical minimum detectable mean
// shift (80% power at alpha=0.01 under the Welch t-test) by bisection over
// repeated trials, then report Delta / sqrt(sigma^2/n), which the law
// predicts to be a constant (T_critical-ish) across the whole grid.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/check.h"
#include "src/common/random.h"
#include "src/common/thread_pool.h"
#include "src/stats/hypothesis.h"

namespace fbdetect {
namespace {

// Detection power for shift `delta` at (sigma, n).
double Power(double delta, double sigma, int n, Rng& rng) {
  const int kTrials = 60;
  int detected = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::vector<double> a;
    std::vector<double> b;
    a.reserve(static_cast<size_t>(n));
    b.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      a.push_back(rng.Normal(0.0, sigma));
      b.push_back(rng.Normal(delta, sigma));
    }
    detected += WelchTTest(a, b, 0.01).significant ? 1 : 0;
  }
  return static_cast<double>(detected) / kTrials;
}

double MinimumDetectableShift(double sigma, int n, Rng& rng) {
  double lo = 0.0;
  double hi = 8.0 * sigma;  // Always detectable.
  for (int iter = 0; iter < 18; ++iter) {
    const double mid = (lo + hi) / 2.0;
    if (Power(mid, sigma, n, rng) >= 0.8) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return (lo + hi) / 2.0;
}

}  // namespace
}  // namespace fbdetect

int main(int argc, char** argv) {
  using namespace fbdetect;

  bool threads_sweep = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--threads-sweep") {
      threads_sweep = true;
    }
  }

  // --- Threads sweep: the multicore rig (EXPERIMENTS.md) -----------------
  // The bisection grid is embarrassingly parallel across (sigma^2, n) cells.
  // Each cell gets its own seeded Rng so the per-cell results are
  // byte-identical for any thread count; the per-core-count curve lands in
  // BENCH_scaling.json.
  if (threads_sweep) {
    PrintHeader("Appendix A.2 threads sweep — bisection grid on a ThreadPool");
    struct Cell {
      double variance;
      int n;
    };
    std::vector<Cell> cells;
    for (double variance : {0.25, 1.0, 4.0}) {
      for (int n : {50, 200, 800, 3200}) {
        cells.push_back({variance, n});
      }
    }
    const std::vector<int> threads_list = {1, 2, 4, 8};
    std::vector<double> sweep_ms;
    std::vector<double> baseline;
    for (int threads : threads_list) {
      std::vector<double> ratios(cells.size(), 0.0);
      ThreadPool pool(static_cast<size_t>(threads - 1));
      const auto t0 = std::chrono::steady_clock::now();
      ParallelIndexFor(cells.size(), threads > 1 ? &pool : nullptr, [&](size_t i) {
        Rng cell_rng(99 + 1000 * static_cast<uint64_t>(i));
        const double sigma = std::sqrt(cells[i].variance);
        const double delta = MinimumDetectableShift(sigma, cells[i].n, cell_rng);
        ratios[i] = delta / std::sqrt(cells[i].variance / cells[i].n);
      });
      const double ms =
          std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
              .count();
      if (threads == threads_list.front()) {
        baseline = ratios;
      } else {
        FBD_CHECK(ratios == baseline);  // Byte-identical for any pool size.
      }
      sweep_ms.push_back(ms);
      std::printf("    threads=%d: %8.1f ms   speedup vs 1: %.2fx\n", threads, ms,
                  sweep_ms[0] / ms);
    }
    char extra[64];
    std::snprintf(extra, sizeof(extra), "{\"grid_cells\": %zu, \"curve\": ", cells.size());
    UpdateBenchScalingJson("appendix_sweep",
                           extra + ThreadsCurveJson(threads_list, sweep_ms) + "}");
    return 0;
  }

  PrintHeader("Appendix A.2 — Delta_threshold ∝ sqrt(sigma^2 / n)");
  std::printf("%-10s %-8s %-16s %-20s %-18s\n", "sigma^2", "n", "Delta_threshold",
              "sqrt(sigma^2/n)", "ratio (≈const)");
  Rng rng(99);
  std::vector<double> ratios;
  for (double variance : {0.25, 1.0, 4.0}) {
    const double sigma = std::sqrt(variance);
    for (int n : {50, 200, 800, 3200}) {
      const double delta = MinimumDetectableShift(sigma, n, rng);
      const double scale = std::sqrt(variance / n);
      const double ratio = delta / scale;
      ratios.push_back(ratio);
      std::printf("%-10.2f %-8d %-16.5f %-20.5f %-18.2f\n", variance, n, delta, scale, ratio);
    }
  }
  const double mean_ratio = Mean(ratios);
  double max_dev = 0.0;
  for (double r : ratios) {
    max_dev = std::max(max_dev, std::fabs(r - mean_ratio) / mean_ratio);
  }
  std::printf("\nmean ratio = %.2f, max deviation = %.1f%% — the ratio is (near) constant\n"
              "across a 16x variance range and a 64x sample-size range, confirming\n"
              "Delta_threshold ∝ sqrt(sigma^2/n) (Expression 1).\n",
              mean_ratio, 100.0 * max_dev);
  return 0;
}
