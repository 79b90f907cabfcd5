// Scan-path throughput harness for the zero-copy pipeline refactor.
//
// Five measurements, written to BENCH_pipeline.json:
//   1. Window extraction: copying ExtractWindows vs zero-copy
//      ExtractWindowView, per-extract nanoseconds.
//   2. Full autocorrelation: the pre-refactor per-lag O(n^2) loop vs the
//      Wiener–Khinchin O(n log n) FFT path, at the window sizes the pipeline
//      actually scans.
//   3. STL decomposition: the pre-refactor per-point O(n * span) loess fits
//      and O(n * width) moving average vs today's fixed-kernel loess and
//      prefix-sum moving average.
//   4. Per-series scan: the pre-refactor flow vs the ScanView flow the
//      pipeline runs today, over every metric of a simulated service.
//   5. End-to-end Pipeline::RunPeriod series-scans/sec at scan_threads 1
//      and 4. NOTE: thread scaling is only visible with >= 4 hardware cores;
//      the JSON records the machine's core count next to the numbers.
//
// Everything in namespace `legacy` below is the pre-change implementation,
// reconstructed verbatim from the seed commit (git show <seed>:src/...), so
// sections 2-4 compare against what actually ran before this change rather
// than against today's detectors with one piece swapped out. The stages that
// did not change numerically (CUSUM change point, went-away scoring) are
// exercised through their Regression-typed wrappers, which preserve the old
// copy-per-stage hand-off.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/check.h"
#include "src/common/random.h"
#include "src/core/pipeline.h"
#include "src/observe/telemetry_export.h"
#include "src/fleet/fleet.h"
#include "src/fleet/scenario.h"
#include "src/stats/correlation.h"
#include "src/stats/descriptive.h"
#include "src/stats/linreg.h"
#include "src/tsa/dp_changepoint.h"
#include "src/tsa/stl.h"
#include "src/tsdb/window.h"

namespace fbdetect {
namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

namespace legacy {

// Pre-refactor AutocorrelationFunction: one Autocorrelation() call per lag,
// each recomputing the mean and denominator — O(n * max_lag).
std::vector<double> Acf(std::span<const double> values, size_t max_lag) {
  const size_t limit = values.empty() ? 0 : std::min(max_lag, values.size() - 1);
  std::vector<double> acf;
  acf.reserve(limit);
  for (size_t lag = 1; lag <= limit; ++lag) {
    acf.push_back(Autocorrelation(values, lag));
  }
  return acf;
}

// Pre-refactor DetectSeasonality: identical peak search, but on top of the
// per-lag ACF above.
SeasonalityEstimate DetectSeasonality(std::span<const double> values, size_t min_period,
                                      size_t max_period, double min_correlation) {
  SeasonalityEstimate estimate;
  const size_t n = values.size();
  if (n < 8 || min_period < 2) {
    return estimate;
  }
  const size_t cap = std::min(max_period, n / 2);
  if (cap < min_period) {
    return estimate;
  }
  const std::vector<double> acf = Acf(values, cap);
  const double noise_band = 2.0 / std::sqrt(static_cast<double>(n));
  double best = 0.0;
  size_t best_lag = 0;
  for (size_t lag = min_period; lag <= cap; ++lag) {
    const double r = acf[lag - 1];
    const double prev = lag >= 2 ? acf[lag - 2] : r;
    const double next = lag < cap ? acf[lag] : r;
    if (r >= prev && r >= next && r > best) {
      best = r;
      best_lag = lag;
    }
  }
  if (best_lag != 0 && best > std::max(min_correlation, noise_band)) {
    estimate.present = true;
    estimate.period = best_lag;
    estimate.correlation = best;
  }
  return estimate;
}

double Tricube(double u) {
  const double a = 1.0 - std::fabs(u) * std::fabs(u) * std::fabs(u);
  return a <= 0.0 ? 0.0 : a * a * a;
}

// Pre-refactor loess: a full weighted linear fit at every point, recomputing
// the tricube weights per point — O(n * span).
std::vector<double> LoessSmoothWeighted(std::span<const double> values, size_t span,
                                        std::span<const double> robustness) {
  const size_t n = values.size();
  std::vector<double> smoothed(n, 0.0);
  if (n == 0) {
    return smoothed;
  }
  if (n == 1) {
    smoothed[0] = values[0];
    return smoothed;
  }
  span = std::clamp<size_t>(span, 2, n);
  for (size_t i = 0; i < n; ++i) {
    size_t lo = i >= span / 2 ? i - span / 2 : 0;
    if (lo + span > n) {
      lo = n - span;
    }
    const size_t hi = lo + span;  // Exclusive.
    const double max_dist =
        std::max(static_cast<double>(i - lo), static_cast<double>(hi - 1 - i));
    double sw = 0.0;
    double swx = 0.0;
    double swy = 0.0;
    double swxx = 0.0;
    double swxy = 0.0;
    for (size_t j = lo; j < hi; ++j) {
      const double dist = std::fabs(static_cast<double>(j) - static_cast<double>(i));
      double w = max_dist > 0.0 ? Tricube(dist / (max_dist + 1.0)) : 1.0;
      if (!robustness.empty()) {
        w *= robustness[j];
      }
      if (w <= 0.0) {
        continue;
      }
      const double x = static_cast<double>(j);
      sw += w;
      swx += w * x;
      swy += w * values[j];
      swxx += w * x * x;
      swxy += w * x * values[j];
    }
    if (sw <= 0.0) {
      smoothed[i] = values[i];
      continue;
    }
    const double denom = sw * swxx - swx * swx;
    const double x_i = static_cast<double>(i);
    if (std::fabs(denom) < 1e-12 * sw * swxx + 1e-300) {
      smoothed[i] = swy / sw;
      continue;
    }
    const double slope = (sw * swxy - swx * swy) / denom;
    const double intercept = (swy - slope * swx) / sw;
    smoothed[i] = slope * x_i + intercept;
  }
  return smoothed;
}

// Pre-refactor centered moving average: an inner sum per point — O(n * width).
std::vector<double> CenteredMovingAverage(std::span<const double> values, size_t width) {
  const size_t n = values.size();
  std::vector<double> out(n, 0.0);
  if (width == 0 || n == 0) {
    return out;
  }
  for (size_t i = 0; i < n; ++i) {
    const size_t half = width / 2;
    size_t lo = i >= half ? i - half : 0;
    size_t hi = std::min(n, i + half + 1);
    if (width % 2 == 0) {
      hi = std::min(n, i + half);  // Symmetric even window.
      if (hi <= lo) {
        hi = lo + 1;
      }
    }
    double sum = 0.0;
    for (size_t j = lo; j < hi; ++j) {
      sum += values[j];
    }
    out[i] = sum / static_cast<double>(hi - lo);
  }
  return out;
}

size_t NextOdd(size_t x) { return x % 2 == 0 ? x + 1 : x; }

// Pre-refactor STL driver (identical structure to today's), on top of the
// per-point loess and per-point moving average above.
Decomposition StlDecompose(std::span<const double> values, size_t period,
                           const StlConfig& config = {}) {
  Decomposition result;
  const size_t n = values.size();
  result.seasonal.assign(n, 0.0);
  result.trend.assign(values.begin(), values.end());
  result.residual.assign(n, 0.0);
  if (period < 2 || n < 2 * period) {
    return result;
  }
  const size_t trend_span =
      config.trend_span != 0 ? config.trend_span : NextOdd(period + period / 2);
  const size_t lowpass_span = config.lowpass_span != 0 ? config.lowpass_span : NextOdd(period);

  std::vector<double> seasonal(n, 0.0);
  std::vector<double> trend(n, 0.0);
  std::vector<double> robustness;

  for (int outer = 0; outer < std::max(1, config.outer_iterations); ++outer) {
    for (int inner = 0; inner < std::max(1, config.inner_iterations); ++inner) {
      std::vector<double> detrended(n);
      for (size_t i = 0; i < n; ++i) {
        detrended[i] = values[i] - trend[i];
      }
      std::vector<double> cycle(n, 0.0);
      for (size_t phase = 0; phase < period; ++phase) {
        std::vector<double> subseries;
        std::vector<double> subweights;
        std::vector<size_t> indices;
        for (size_t i = phase; i < n; i += period) {
          subseries.push_back(detrended[i]);
          indices.push_back(i);
          if (!robustness.empty()) {
            subweights.push_back(robustness[i]);
          }
        }
        const std::vector<double> smoothed =
            LoessSmoothWeighted(subseries, config.seasonal_span, subweights);
        for (size_t k = 0; k < indices.size(); ++k) {
          cycle[indices[k]] = smoothed[k];
        }
      }
      std::vector<double> lowpass = CenteredMovingAverage(cycle, period);
      lowpass = LoessSmoothWeighted(lowpass, lowpass_span, {});
      for (size_t i = 0; i < n; ++i) {
        seasonal[i] = cycle[i] - lowpass[i];
      }
      std::vector<double> deseasonalized(n);
      for (size_t i = 0; i < n; ++i) {
        deseasonalized[i] = values[i] - seasonal[i];
      }
      trend = LoessSmoothWeighted(deseasonalized, trend_span, robustness);
    }
    if (outer + 1 < config.outer_iterations) {
      std::vector<double> abs_residuals(n);
      for (size_t i = 0; i < n; ++i) {
        abs_residuals[i] = std::fabs(values[i] - seasonal[i] - trend[i]);
      }
      const double h = 6.0 * Median(abs_residuals);
      robustness.assign(n, 1.0);
      if (h > 0.0) {
        for (size_t i = 0; i < n; ++i) {
          const double u = abs_residuals[i] / h;
          const double w = u >= 1.0 ? 0.0 : (1.0 - u * u) * (1.0 - u * u);
          robustness[i] = w;
        }
      }
    }
  }

  result.seasonal = std::move(seasonal);
  result.trend = std::move(trend);
  for (size_t i = 0; i < n; ++i) {
    result.residual[i] = values[i] - result.seasonal[i] - result.trend[i];
  }
  result.valid = true;
  return result;
}

// Pre-refactor SeasonalityStage::Evaluate: copies historical + analysis into
// `combined`, then runs the per-lag ACF and the per-point-loess STL.
SeasonalityVerdict EvaluateSeasonality(const DetectionConfig& config,
                                       const Regression& regression) {
  SeasonalityVerdict verdict;
  const std::vector<double>& historical = regression.historical;
  const std::vector<double>& analysis = regression.analysis;
  if (historical.size() < 16 || analysis.empty()) {
    return verdict;
  }
  std::vector<double> combined(historical.begin(), historical.end());
  combined.insert(combined.end(), analysis.begin(), analysis.end());

  const SeasonalityEstimate season = DetectSeasonality(
      combined, /*min_period=*/4, /*max_period=*/combined.size() / 3,
      config.seasonality_min_correlation);
  if (!season.present) {
    return verdict;
  }
  verdict.seasonality_present = true;
  verdict.period = season.period;

  const Decomposition stl = StlDecompose(combined, season.period);
  if (!stl.valid) {
    return verdict;
  }
  const std::vector<double> deseasonalized = stl.Deseasonalized();
  const double residual_sd = SampleStdDev(stl.residual);
  if (residual_sd <= 0.0) {
    return verdict;
  }
  const size_t change = historical.size() + regression.change_index;
  const size_t analysis_end = combined.size() - regression.extended_size;
  if (change >= combined.size()) {
    return verdict;
  }
  const std::span<const double> cleaned(deseasonalized);
  const double median_before = Median(cleaned.subspan(0, change));
  const size_t analysis_post = analysis_end > change ? analysis_end - change : 0;
  if (analysis_post > 0) {
    const double median_after = Median(cleaned.subspan(change, analysis_post));
    verdict.analysis_zscore = (median_after - median_before) / residual_sd;
  }
  if (regression.extended_size > 0 && analysis_end < combined.size()) {
    const double median_ext = Median(cleaned.subspan(analysis_end));
    verdict.extended_zscore = (median_ext - median_before) / residual_sd;
  } else {
    verdict.extended_zscore = verdict.analysis_zscore;
  }
  verdict.seasonal_filtered =
      verdict.analysis_zscore < config.seasonality_zscore_threshold &&
      verdict.extended_zscore < config.seasonality_zscore_threshold;
  return verdict;
}

// Pre-refactor LongTermDetector::Detect: builds the oriented `full` copy,
// then runs per-lag-ACF seasonality detection and per-point-loess STL on
// every series scanned.
std::optional<Regression> DetectLongTerm(const DetectionConfig& config, const MetricId& metric,
                                         const WindowExtract& windows) {
  const size_t analysis_size = windows.analysis.size();
  if (analysis_size < 16 || windows.historical.size() < 16) {
    return std::nullopt;
  }
  if (HasNonFinite(windows.historical) || HasNonFinite(windows.analysis) ||
      HasNonFinite(windows.extended)) {
    return std::nullopt;
  }
  const double sign = LowerIsRegression(metric.kind) ? -1.0 : 1.0;

  std::vector<double> full;
  full.reserve(windows.historical.size() + analysis_size + windows.extended.size());
  for (double v : windows.historical) {
    full.push_back(sign * v);
  }
  for (double v : windows.analysis) {
    full.push_back(sign * v);
  }
  for (double v : windows.extended) {
    full.push_back(sign * v);
  }

  const SeasonalityEstimate season =
      DetectSeasonality(full, 4, full.size() / 3, config.seasonality_min_correlation);
  const size_t period = season.present ? season.period : std::max<size_t>(4, full.size() / 20);
  const Decomposition stl = StlDecompose(full, period);
  const std::vector<double>& trend = stl.valid ? stl.trend : full;

  const size_t hist_size = windows.historical.size();
  const size_t edge = std::max<size_t>(4, analysis_size / 8);
  const std::span<const double> trend_span(trend);
  const std::span<const double> analysis_trend = trend_span.subspan(hist_size, analysis_size);
  const std::span<const double> extended_trend =
      trend_span.subspan(hist_size + analysis_size);

  const double analysis_start_mean = Mean(analysis_trend.subspan(0, edge));
  const double historical_mean = Mean(trend_span.subspan(0, hist_size));
  const double baseline = std::max(analysis_start_mean, historical_mean);

  const double analysis_end_mean = Mean(analysis_trend.subspan(analysis_trend.size() - edge));
  double current = analysis_end_mean;
  if (!extended_trend.empty()) {
    current = std::min(analysis_end_mean, Mean(extended_trend));
  }

  const double delta = current - baseline;
  const double threshold = config.threshold_mode == ThresholdMode::kAbsolute
                               ? config.threshold
                               : config.threshold * std::fabs(baseline);
  if (delta < threshold) {
    return std::nullopt;
  }

  std::vector<double> normalized(analysis_trend.begin(), analysis_trend.end());
  const double lo = Min(normalized);
  const double hi = Max(normalized);
  if (hi > lo) {
    for (double& v : normalized) {
      v = (v - lo) / (hi - lo);
    }
  }
  size_t change_index = 0;
  const LinearFit fit = FitLine(normalized);
  if (!(fit.valid && fit.rmse < config.long_term_rmse_threshold)) {
    change_index = BestSingleSplit(analysis_trend, /*min_segment=*/edge);
  }

  Regression regression;
  regression.metric = metric;
  regression.long_term = true;
  regression.detected_at = windows.as_of;
  regression.change_index = change_index;
  regression.change_time = change_index < windows.analysis_timestamps.size()
                               ? windows.analysis_timestamps[change_index]
                               : windows.analysis_begin;
  regression.extended_size = windows.extended.size();
  regression.baseline_mean = baseline;
  regression.regressed_mean = current;
  regression.delta = delta;
  regression.relative_delta = baseline != 0.0 ? delta / std::fabs(baseline) : 0.0;
  regression.p_value = 0.0;
  regression.historical.assign(trend_span.begin(),
                               trend_span.begin() + static_cast<long>(hist_size));
  regression.analysis.assign(trend_span.begin() + static_cast<long>(hist_size),
                             trend_span.end());
  regression.analysis_timestamps = windows.analysis_timestamps;
  return regression;
}

}  // namespace legacy

struct BenchWorld {
  FleetSimulator fleet;
  ServiceSimulator* service = nullptr;
  // Full mode is long enough to fill a Table-1-style 10-day historical
  // window; smoke mode shrinks the world so CI can exercise the harness.
  Duration duration = Days(12);
  Duration historical = Days(10);
  TimePoint run_begin = Days(11);

  explicit BenchWorld(bool smoke) {
    if (smoke) {
      duration = Days(3);
      historical = Days(2);
      run_begin = Days(2);
    }
    ServiceConfig config;
    config.name = "svc";
    config.num_servers = 100;
    config.call_graph.num_subroutines = 60;
    config.sampling.samples_per_bucket = 1000000;
    config.sampling.bucket_width = Minutes(10);
    config.tick = Minutes(10);
    config.num_seasonal_subroutines = 10;
    config.seasonal_mix_amplitude = 0.10;
    config.seed = 42;
    service = fleet.AddService(config);

    InjectedEvent regression;
    regression.kind = EventKind::kStepRegression;
    regression.service = "svc";
    regression.subroutine = service->graph().node(5).name;
    regression.start = run_begin + Hours(3);
    regression.magnitude = 0.5;
    fleet.InjectEvent(regression);

    fleet.Run(0, duration);
  }

  PipelineOptions Options(int scan_threads) const {
    PipelineOptions options;
    options.detection.threshold = 0.0005;
    options.detection.windows.historical = historical;
    options.detection.windows.analysis = Hours(4);
    options.detection.windows.extended = Hours(2);
    options.detection.rerun_interval = Hours(4);
    options.scan_threads = scan_threads;
    return options;
  }
};

// The pre-refactor per-series scan: materialized windows, Regression-typed
// hand-offs that copy the windows at every stage, per-lag O(n^2) ACF and
// per-point O(n * span) loess inside both seasonality consumers (the
// long-term path runs them on EVERY series, the seasonality stage on every
// went-away survivor).
size_t LegacyScanMetric(const TimeSeriesDatabase& db, const MetricId& id, TimePoint as_of,
                        const DetectionConfig& detection, const ChangePointStage& change_point,
                        const WentAwayDetector& went_away) {
  const TimeSeries* series = db.Find(id);
  if (series == nullptr) {
    return 0;
  }
  size_t survivors = 0;
  const WindowExtract windows = ExtractWindows(*series, as_of, detection.windows);
  if (std::optional<Regression> candidate = change_point.Detect(id, windows)) {
    if (went_away.Evaluate(*candidate, 144).keep &&
        !legacy::EvaluateSeasonality(detection, *candidate).seasonal_filtered &&
        PassesThreshold(*candidate, detection)) {
      ++survivors;
    }
  }
  if (detection.enable_long_term) {
    if (std::optional<Regression> candidate = legacy::DetectLongTerm(detection, id, windows)) {
      if (PassesThreshold(*candidate, detection)) {
        ++survivors;
      }
    }
  }
  return survivors;
}

// Today's per-series scan (mirrors Pipeline::ScanMetric).
size_t ViewScanMetric(const TimeSeriesDatabase& db, const MetricId& id, TimePoint as_of,
                      const DetectionConfig& detection, const ChangePointStage& change_point,
                      const WentAwayDetector& went_away, const SeasonalityStage& seasonality,
                      const LongTermDetector& long_term, std::vector<double>& scratch) {
  const TimeSeries* series = db.Find(id);
  if (series == nullptr) {
    return 0;
  }
  size_t survivors = 0;
  const WindowView windows = ExtractWindowView(*series, as_of, detection.windows);
  const double sign = LowerIsRegression(id.kind) ? -1.0 : 1.0;
  const ScanView view = OrientWindows(windows, sign, scratch);
  if (const std::optional<ScanCandidate> candidate = change_point.DetectCandidate(view)) {
    if (went_away.Evaluate(view, *candidate, 144).keep &&
        !seasonality.Evaluate(view, *candidate).seasonal_filtered &&
        PassesThreshold(*candidate, detection)) {
      ++survivors;
    }
  }
  if (detection.enable_long_term && long_term.Detect(id, view).has_value()) {
    ++survivors;
  }
  return survivors;
}

// Order-sensitive hash of every detection-relevant field, so two RunPeriod
// outputs compare byte-identical without materializing a canonical dump.
uint64_t FingerprintRegressions(const std::vector<Regression>& regressions) {
  uint64_t h = 0x9e3779b97f4a7c15ull ^ regressions.size();
  const auto mix = [&h](uint64_t v) {
    h ^= v;
    (void)SplitMix64(h);
  };
  const auto mix_double = [&](double v) { mix(std::bit_cast<uint64_t>(v)); };
  for (const Regression& r : regressions) {
    mix(std::hash<std::string>{}(r.metric.ToString()));
    mix(r.long_term ? 1 : 0);
    mix(static_cast<uint64_t>(r.detected_at));
    mix(static_cast<uint64_t>(r.change_time));
    mix(r.change_index);
    mix_double(r.baseline_mean);
    mix_double(r.regressed_mean);
    mix_double(r.delta);
    mix_double(r.relative_delta);
    mix_double(r.p_value);
    mix(r.historical.size());
    for (double v : r.historical) {
      mix_double(v);
    }
    mix(r.analysis.size());
    for (double v : r.analysis) {
      mix_double(v);
    }
    for (TimePoint t : r.analysis_timestamps) {
      mix(static_cast<uint64_t>(t));
    }
    mix(r.extended_size);
    for (int64_t c : r.candidate_root_causes) {
      mix(static_cast<uint64_t>(c));
    }
  }
  return h;
}

}  // namespace
}  // namespace fbdetect

int main(int argc, char** argv) {
  using namespace fbdetect;
  using Clock = std::chrono::steady_clock;

  bool smoke = false;
  bool threads_sweep = false;
  std::string telemetry_out;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
    } else if (std::string(argv[i]) == "--threads-sweep") {
      threads_sweep = true;
    } else if (std::string(argv[i]) == "--telemetry-out" && i + 1 < argc) {
      telemetry_out = argv[++i];
    }
  }

  PrintHeader(std::string("Scan-path throughput: zero-copy windows, FFT ACF, thread pool") +
              (smoke ? " [smoke]" : "") + (threads_sweep ? " [threads-sweep]" : ""));
  const unsigned hw_cores = std::thread::hardware_concurrency();
  std::printf("hardware cores: %u\n", hw_cores);

  // --- Threads sweep: the multicore rig (EXPERIMENTS.md) -----------------
  // End-to-end RunPeriod per-core-count curve into BENCH_scaling.json; the
  // regular sections are skipped.
  if (threads_sweep) {
    BenchWorld sweep_world(smoke);
    const size_t num_ids = sweep_world.fleet.db().ListMetrics("svc").size();
    const std::vector<int> threads_list = {1, 2, 4, 8};
    std::vector<double> sweep_ms;
    uint64_t baseline_fp = 0;
    size_t reruns = 0;
    std::printf("\nRunPeriod threads sweep (%zu metrics)\n", num_ids);
    for (int threads : threads_list) {
      Pipeline pipeline(&sweep_world.fleet.db(), &sweep_world.fleet.change_log(), nullptr,
                        sweep_world.Options(threads));
      const auto sweep_t0 = Clock::now();
      const std::vector<Regression> regressions =
          pipeline.RunPeriod("svc", sweep_world.run_begin, sweep_world.duration);
      const double ms = MillisSince(sweep_t0);
      // Detection output byte-identical at every scan_threads setting.
      const uint64_t fp = FingerprintRegressions(regressions);
      if (threads == threads_list.front()) {
        baseline_fp = fp;
      } else {
        FBD_CHECK(fp == baseline_fp);
      }
      reruns = static_cast<size_t>((sweep_world.duration - sweep_world.run_begin) /
                                   pipeline.options().detection.rerun_interval);
      sweep_ms.push_back(ms);
      std::printf("    threads=%d: %8.1f ms   speedup vs 1: %.2fx\n", threads, ms,
                  sweep_ms[0] / ms);
    }
    char extra[128];
    std::snprintf(extra, sizeof(extra), "{\"series_scans\": %zu, \"curve\": ",
                  num_ids * reruns);
    UpdateBenchScalingJson("pipeline_sweep",
                           extra + ThreadsCurveJson(threads_list, sweep_ms) + "}");
    return 0;
  }

  // --- 1. Window extraction: copy vs view -------------------------------
  TimeSeries long_series;
  for (int i = 0; i < 2016; ++i) {  // 14 days at 10-minute ticks.
    long_series.Append(static_cast<TimePoint>(i) * Minutes(10),
                       1.0 + 0.1 * std::sin(i / 24.0));
  }
  WindowSpec wide;
  wide.historical = Days(10);
  wide.analysis = Hours(4);
  wide.extended = Hours(2);
  const TimePoint wide_as_of = long_series.end_time() + Minutes(10);

  const int kExtractIters = smoke ? 500 : 20000;
  auto t0 = Clock::now();
  double copy_checksum = 0.0;
  for (int i = 0; i < kExtractIters; ++i) {
    const WindowExtract extract = ExtractWindows(long_series, wide_as_of, wide);
    copy_checksum += extract.analysis_plus_extended.back();
  }
  const double copy_extract_ms = MillisSince(t0);

  t0 = Clock::now();
  double view_checksum = 0.0;
  for (int i = 0; i < kExtractIters; ++i) {
    const WindowView view = ExtractWindowView(long_series, wide_as_of, wide);
    view_checksum += view.analysis_plus_extended.back();
  }
  const double view_extract_ms = MillisSince(t0);
  FBD_CHECK(copy_checksum == view_checksum);
  const double extract_speedup = copy_extract_ms / view_extract_ms;
  std::printf("\n[1] window extraction (%d iters, 1476-point window)\n", kExtractIters);
  std::printf("    copy: %8.1f ms   view: %8.1f ms   speedup: %.1fx\n", copy_extract_ms,
              view_extract_ms, extract_speedup);

  // --- 2. Full ACF: old per-lag loop vs FFT -----------------------------
  std::printf("\n[2] autocorrelation function, max_lag = n/3\n");
  std::vector<size_t> acf_sizes = {432, 1476, 2880};
  std::vector<double> acf_old_ms;
  std::vector<double> acf_fft_ms;
  for (size_t n : acf_sizes) {
    std::vector<double> values;
    values.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      values.push_back(std::sin(static_cast<double>(i) / 17.0) +
                       0.3 * std::cos(static_cast<double>(i) / 5.0));
    }
    const size_t max_lag = n / 3;
    const int iters = smoke ? 4 : (n <= 500 ? 200 : 40);
    t0 = Clock::now();
    for (int i = 0; i < iters; ++i) {
      legacy::Acf(values, max_lag);
    }
    const double old_ms = MillisSince(t0) / iters;
    t0 = Clock::now();
    for (int i = 0; i < iters; ++i) {
      AutocorrelationFunction(values, max_lag);
    }
    const double fft_ms = MillisSince(t0) / iters;
    acf_old_ms.push_back(old_ms);
    acf_fft_ms.push_back(fft_ms);
    std::printf("    n=%5zu  old: %9.3f ms   fft: %9.3f ms   speedup: %.1fx\n", n, old_ms,
                fft_ms, old_ms / fft_ms);
  }

  // --- 3. STL decomposition: per-point loess vs fixed-kernel loess ------
  // n = a 10-day historical + 4h analysis + 2h extended window at 10-minute
  // ticks; period 73 = the long-term detector's n/20 fallback.
  std::printf("\n[3] STL decomposition (n=1476, period=73)\n");
  std::vector<double> stl_input;
  stl_input.reserve(1476);
  for (size_t i = 0; i < 1476; ++i) {
    stl_input.push_back(1.0 + 0.2 * std::sin(static_cast<double>(i) / 11.6) +
                        0.05 * std::cos(static_cast<double>(i) / 3.0));
  }
  const int kStlIters = smoke ? 2 : 20;
  t0 = Clock::now();
  for (int i = 0; i < kStlIters; ++i) {
    legacy::StlDecompose(stl_input, 73);
  }
  const double stl_old_ms = MillisSince(t0) / kStlIters;
  t0 = Clock::now();
  for (int i = 0; i < kStlIters; ++i) {
    StlDecompose(stl_input, 73);
  }
  const double stl_new_ms = MillisSince(t0) / kStlIters;
  const double stl_speedup = stl_old_ms / stl_new_ms;
  std::printf("    old: %8.3f ms   new: %8.3f ms   speedup: %.1fx\n", stl_old_ms, stl_new_ms,
              stl_speedup);

  // --- 4. Per-series scan: legacy flow vs ScanView flow -----------------
  BenchWorld world(smoke);
  const TimeSeriesDatabase& db = world.fleet.db();
  const PipelineOptions options = world.Options(1);
  const DetectionConfig& detection = options.detection;
  const ChangePointStage change_point(detection);
  const WentAwayDetector went_away(detection);
  const SeasonalityStage seasonality(detection);
  const LongTermDetector long_term(detection);
  const std::vector<MetricId> ids = db.ListMetrics("svc");
  const TimePoint scan_as_of = world.run_begin + Hours(8);

  const int kScanIters = smoke ? 1 : 3;
  size_t legacy_survivors = 0;
  t0 = Clock::now();
  for (int iter = 0; iter < kScanIters; ++iter) {
    legacy_survivors = 0;
    for (const MetricId& id : ids) {
      legacy_survivors += LegacyScanMetric(db, id, scan_as_of, detection, change_point,
                                           went_away);
    }
  }
  const double legacy_scan_ms = MillisSince(t0) / kScanIters;

  size_t view_survivors = 0;
  std::vector<double> scratch;
  t0 = Clock::now();
  for (int iter = 0; iter < kScanIters; ++iter) {
    view_survivors = 0;
    for (const MetricId& id : ids) {
      view_survivors += ViewScanMetric(db, id, scan_as_of, detection, change_point, went_away,
                                       seasonality, long_term, scratch);
    }
  }
  const double view_scan_ms = MillisSince(t0) / kScanIters;
  FBD_CHECK(legacy_survivors == view_survivors);
  const double scan_speedup = legacy_scan_ms / view_scan_ms;
  std::printf("\n[4] per-series scan over %zu metrics (single thread)\n", ids.size());
  std::printf("    legacy: %8.1f ms   scanview: %8.1f ms   speedup: %.1fx\n", legacy_scan_ms,
              view_scan_ms, scan_speedup);

  // --- 5. End-to-end RunPeriod, 1 vs 4 scan threads ---------------------
  std::printf("\n[5] end-to-end RunPeriod (scan_threads 1 vs 4)\n");
  double run_ms_1 = 0.0;
  double run_ms_4 = 0.0;
  size_t reruns = 0;
  for (int threads : {1, 4}) {
    Pipeline pipeline(&world.fleet.db(), &world.fleet.change_log(), nullptr,
                      world.Options(threads));
    t0 = Clock::now();
    pipeline.RunPeriod("svc", world.run_begin, world.duration);
    const double ms = MillisSince(t0);
    reruns = static_cast<size_t>((world.duration - world.run_begin) /
                                 pipeline.options().detection.rerun_interval);
    const double scans = static_cast<double>(ids.size() * reruns);
    std::printf("    threads=%d: %8.1f ms  (%.0f series-scans/sec)\n", threads, ms,
                scans / (ms / 1000.0));
    (threads == 1 ? run_ms_1 : run_ms_4) = ms;
  }
  const double series_scans = static_cast<double>(ids.size() * reruns);

  // --- 6. Telemetry overhead: RunPeriod with the registry off vs on -----
  // Alternating min-of-3 pairs so slow-machine drift hits both sides alike.
  // The off-by-default contract: with telemetry disabled the hot path does
  // zero clock reads and zero atomic writes, and with it enabled the cost
  // stays within the noise floor (< 5%, asserted in smoke mode where CI
  // runs this harness; shared runners routinely jitter a min-of-3 pair by
  // a couple percent, so the bar leaves headroom over the real <1% cost).
  std::printf("\n[6] telemetry overhead (RunPeriod, scan_threads 2, min of 3)\n");
  double telemetry_off_ms = std::numeric_limits<double>::infinity();
  double telemetry_on_ms = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    for (const bool enabled : {false, true}) {
      PipelineOptions observed = world.Options(2);
      observed.telemetry.enabled = enabled;
      Pipeline pipeline(&world.fleet.db(), &world.fleet.change_log(), nullptr, observed);
      t0 = Clock::now();
      pipeline.RunPeriod("svc", world.run_begin, world.duration);
      const double ms = MillisSince(t0);
      double& best = enabled ? telemetry_on_ms : telemetry_off_ms;
      best = std::min(best, ms);
      if (enabled && rep == 2 && !telemetry_out.empty()) {
        FBD_CHECK(WriteTelemetryFile(pipeline.telemetry(), telemetry_out));
        std::printf("    wrote %s\n", telemetry_out.c_str());
      }
    }
  }
  const double telemetry_overhead = telemetry_on_ms / telemetry_off_ms - 1.0;
  std::printf("    off: %8.1f ms   on: %8.1f ms   overhead: %+.2f%%\n", telemetry_off_ms,
              telemetry_on_ms, telemetry_overhead * 100.0);
  if (smoke) {
    FBD_CHECK(telemetry_on_ms <= telemetry_off_ms * 1.05);
  }

  // --- JSON -------------------------------------------------------------
  FILE* json = std::fopen("BENCH_pipeline.json", "w");
  FBD_CHECK(json != nullptr);
  std::fprintf(json, "{\n");
  WriteHardwareJson(json);
  std::fprintf(json, ",\n");
  std::fprintf(json, "  \"hardware_cores\": %u,\n", hw_cores);
  std::fprintf(json, "  \"window_extraction\": {\"iters\": %d, \"copy_ms\": %.3f, "
                     "\"view_ms\": %.3f, \"speedup\": %.2f},\n",
               kExtractIters, copy_extract_ms, view_extract_ms, extract_speedup);
  std::fprintf(json, "  \"acf\": [\n");
  for (size_t i = 0; i < acf_sizes.size(); ++i) {
    std::fprintf(json,
                 "    {\"n\": %zu, \"old_ms\": %.4f, \"fft_ms\": %.4f, \"speedup\": %.2f}%s\n",
                 acf_sizes[i], acf_old_ms[i], acf_fft_ms[i], acf_old_ms[i] / acf_fft_ms[i],
                 i + 1 < acf_sizes.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json, "  \"stl\": {\"n\": 1476, \"period\": 73, \"old_ms\": %.3f, "
                     "\"new_ms\": %.3f, \"speedup\": %.2f},\n",
               stl_old_ms, stl_new_ms, stl_speedup);
  std::fprintf(json, "  \"per_series_scan\": {\"metrics\": %zu, \"legacy_ms\": %.2f, "
                     "\"scanview_ms\": %.2f, \"speedup\": %.2f},\n",
               ids.size(), legacy_scan_ms, view_scan_ms, scan_speedup);
  std::fprintf(json, "  \"run_period\": {\"series_scans\": %.0f, \"threads1_ms\": %.1f, "
                     "\"threads4_ms\": %.1f, \"threads1_scans_per_sec\": %.0f, "
                     "\"threads4_scans_per_sec\": %.0f},\n",
               series_scans, run_ms_1, run_ms_4, series_scans / (run_ms_1 / 1000.0),
               series_scans / (run_ms_4 / 1000.0));
  std::fprintf(json, "  \"telemetry_overhead\": {\"off_ms\": %.1f, \"on_ms\": %.1f, "
                     "\"overhead_fraction\": %.4f}\n",
               telemetry_off_ms, telemetry_on_ms, telemetry_overhead);
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("\nwrote BENCH_pipeline.json\n");
  return 0;
}
