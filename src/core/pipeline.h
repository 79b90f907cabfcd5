// The end-to-end FBDetect pipeline (Fig. 6).
//
// Per re-run (every DetectionConfig::rerun_interval), for every time series
// of a service:
//   short-term path: change-point detector -> went-away detector ->
//     seasonality detector -> threshold filter;
//   long-term path: STL-first long-term detector -> threshold filter.
// Survivors from both paths then flow through SameRegressionMerger ->
// SOMDedup -> cost-shift detector -> PairwiseDedup -> root-cause analysis.
// Faster filters run first to starve the expensive later stages (§5.1).
//
// Scan path: per series, windows are extracted as zero-copy spans
// (ExtractWindowView) and oriented regression-positive once into a per-worker
// scratch buffer (a no-op for higher-is-worse metrics); candidates flow
// through the filter stages as scalars and are materialized into Regression
// objects only when they survive the threshold. Scans are fanned out over a
// persistent ThreadPool with a deterministic stride partition; per-worker
// survivors are merged in canonical (MetricId, path) order, so the output is
// byte-identical for any scan_threads value.
//
// Funnel path (PR 3): survivors are fingerprinted once (RegressionFingerprint
// — metric string, token vector, hashed grams, SOM shape features) right
// after the scan, in parallel, and the FunnelCandidate bundles flow through
// SameRegressionMerger -> SOMDedup -> cost-shift -> PairwiseDedup -> root
// cause without re-deriving any of those artifacts. Every parallel stage
// writes per-index slots and merges in a canonical order (SOM cohorts by
// kind, cost-shift verdicts by representative index, pairwise scores by
// group id, root cause by new-group index), so funnel output and counters
// are byte-identical for any scan_threads value.
//
// FunnelStats mirror Table 3: the count of surviving anomalies after each
// stage, for the short-term and long-term paths, read off the pipeline's
// stage counters.
#ifndef FBDETECT_SRC_CORE_PIPELINE_H_
#define FBDETECT_SRC_CORE_PIPELINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/observe/telemetry.h"
#include "src/core/change_point_stage.h"
#include "src/core/code_info.h"
#include "src/core/cost_shift.h"
#include "src/core/long_term.h"
#include "src/core/pairwise_dedup.h"
#include "src/core/regression.h"
#include "src/core/root_cause.h"
#include "src/core/same_regression_merger.h"
#include "src/core/sanitizer.h"
#include "src/core/scan_view.h"
#include "src/core/seasonality_stage.h"
#include "src/core/som_dedup.h"
#include "src/core/threshold_filter.h"
#include "src/core/went_away.h"
#include "src/core/workload_config.h"
#include "src/fleet/change_log.h"
#include "src/tsdb/database.h"

namespace fbdetect {

// Survivor counts after each Fig. 6 funnel stage (Table 3), for one of the
// short-term and long-term paths.
struct FunnelStats {
  uint64_t change_points = 0;
  uint64_t after_went_away = 0;
  uint64_t after_seasonality = 0;
  uint64_t after_threshold = 0;
  uint64_t after_same_merger = 0;
  uint64_t after_som_dedup = 0;
  uint64_t after_cost_shift = 0;
  uint64_t after_pairwise = 0;
};

// Self-observability over the pipeline itself (DESIGN.md §12). Every stage
// always counts candidates in and out (deterministic: byte-identical for any
// scan_threads). `enabled` adds the stage clocks: wall/CPU latency
// histograms (runtime). Off by default, so the hot path reads no clock.
struct TelemetryOptions {
  bool enabled = false;
};

// The funnel stages run with their §5 defaults (PairwiseRule,
// RootCauseConfig, SomTrainConfig); only what a workload or an experiment
// varies is an option here.
struct PipelineOptions {
  DetectionConfig detection;
  TelemetryOptions telemetry;
  bool enable_cost_shift = true;   // AdServing disables it (Table 3).
  // Per-series detection (stages 1-3 + threshold) is embarrassingly
  // parallel; production FBDetect fans it out across a serverless platform
  // (§5.1). >1 scans series on that many threads (a persistent pool, spawned
  // once at construction); results are merged in deterministic metric order,
  // so outputs are identical for any value.
  int scan_threads = 1;
};

// What each scan stage decided for one series at one re-run: the per-series
// half of Fig. 6, up to the funnel. A stage's field is set only when that
// stage ran, so a candidate that the went-away detector dropped has
// `went_away` set and `seasonality` and `threshold` empty.
struct SeriesVerdicts {
  // The sanitizer's reading of the window; `observed` is false when the
  // window held no points, the series is absent or its stored history
  // failed to decode.
  WindowQuality quality;
  // The scan withheld the series for this re-run: a dirty window, a decode
  // failure or a detector exception (its QuarantineRecord counts one
  // quarantined window).
  bool quarantined = false;
  std::optional<ScanCandidate> change_point;
  std::optional<WentAwayVerdict> went_away;
  std::optional<SeasonalityVerdict> seasonality;
  std::optional<bool> threshold;  // Whether the candidate passed.
  bool long_term_detected = false;  // Before the threshold recheck.
  // Filled by ScanSeries: the short-term survivor first, then the long-term
  // one, with quick root-cause candidates attached as in the scan.
  std::vector<Regression> survivors;
};

class Pipeline {
 public:
  // `change_log` and `code_info` may be null (root-cause analysis and the
  // structural cost domains degrade gracefully). Non-null pointers must
  // outlive the pipeline.
  Pipeline(const TimeSeriesDatabase* db, const ChangeLog* change_log,
           const CodeInfoProvider* code_info, PipelineOptions options);

  // One re-run at `as_of`: scans every series of `service` and returns the
  // representatives of NEWLY opened regression groups, root causes attached.
  std::vector<Regression> RunAt(const std::string& service, TimePoint as_of);

  // Periodic re-runs over [begin + interval, end]; returns all newly reported
  // regressions across runs.
  std::vector<Regression> RunPeriod(const std::string& service, TimePoint begin, TimePoint end);

  // Scans one series at `as_of` through the same ScanMetric that RunAt's scan
  // runs, and returns each stage's verdict. It has the same effect on the
  // pipeline.scan.*, pipeline.sanitizer.* and pipeline.stage.* instruments
  // and on quarantine_report() as that series' scan inside RunAt; it does not
  // count a pipeline.runs and runs no funnel stage. Must not run concurrently
  // with RunAt.
  SeriesVerdicts ScanSeries(const MetricId& id, TimePoint as_of);

  // Table 3 rows accumulated over every run so far.
  FunnelStats short_term_funnel() const { return Funnel(/*long_term=*/false); }
  FunnelStats long_term_funnel() const { return Funnel(/*long_term=*/true); }

  // The pipeline's pipeline.* instruments (the database keeps its own tsdb.*
  // ones; exports render both). Deterministic counters reconcile exactly
  // with the funnel: e.g. scan.series_in == series_no_data + decode_failures
  // + windows_quarantined + stage.change_point.in, and stage.fingerprint.in
  // == stage.threshold.out + stage.long_term.out. Histograms are registered
  // only when TelemetryOptions::enabled.
  const TelemetryRegistry& telemetry() const { return telemetry_; }
  TelemetryRegistry& telemetry() { return telemetry_; }

  // The cost-shift stage, exposed so callers can register custom
  // CostDomainDetectors (also the seam robustness tests use to inject
  // throwing detectors). Must be called before the first run.
  CostShiftDetector& cost_shift_detector() { return cost_shift_; }

  // Everything the pipeline refused to trust so far: sanitizer-quarantined
  // windows, corrupt sealed storage, detector exceptions isolated to one
  // series, and the database's ingest-time duplicate/out-of-order drops —
  // one record per dirty series, in canonical MetricId order.
  QuarantineReport quarantine_report() const;
  const std::vector<RegressionGroup>& groups() const { return pairwise_.groups(); }
  const PipelineOptions& options() const { return options_; }

 private:
  // Pre-resolved instrument handles, so the hot path never does a name
  // lookup. Counters count pipeline events only and are always registered;
  // histograms are null unless TelemetryOptions::enabled, and a StageTimer
  // built from a null histogram reads no clock.
  struct StageInstruments {
    Counter* in = nullptr;
    Counter* out = nullptr;
    // Long-term share of `out`, on the funnel stages after both paths meet
    // (Table 3's second column); null elsewhere.
    Counter* out_long_term = nullptr;
    Histogram* wall_ns = nullptr;
    Histogram* cpu_ns = nullptr;  // Orchestrating thread only; null on scan stages.
  };
  struct Instruments {
    Counter* runs = nullptr;
    Counter* series_in = nullptr;
    Counter* series_no_data = nullptr;
    Counter* series_decode_failures = nullptr;
    Counter* windows_flagged = nullptr;
    Counter* windows_quarantined = nullptr;
    Counter* sanitizer_verdict[4] = {};  // Indexed by QualityVerdict.
    Counter* detector_exceptions = nullptr;
    Counter* funnel_exceptions = nullptr;
    Counter* reported = nullptr;
    // Long-term detections before the threshold recheck (Table 3's first
    // long-term row); stage.long_term.out counts the recheck's survivors.
    Counter* long_term_detected = nullptr;
    StageInstruments change_point, went_away, seasonality, threshold, long_term,
        fingerprint, same_merger, som_dedup, cost_shift, pairwise, root_cause;
    Histogram* scan_wall_ns = nullptr;  // Whole ScanAllMetrics, per run.
    Histogram* run_wall_ns = nullptr;   // Whole RunAt, per run.
    // Substages, nested inside the stage histograms (null unless enabled):
    // one window's seasonality estimate and STL, each computed once per
    // window by whichever stage asks first, and long-term's change-point
    // location step.
    Histogram* seasonality_estimate_ns = nullptr;
    Histogram* stl_ns = nullptr;
    Histogram* long_term_locate_ns = nullptr;
  };

  // Registers every instrument with the registry and fills `obs_`.
  void RegisterInstruments();

  // One path's Table 3 rows, derived from the stage counters.
  FunnelStats Funnel(bool long_term) const;

  // Runs window extraction, the sanitizer, detection stages 1-3 + threshold
  // and the long-term detector for one metric; appends survivors, counts
  // into the registry's scan counters and returns each stage's verdict
  // (every field but `survivors`).
  // `scratch` is the caller's orientation buffer (reused across metrics;
  // untouched for higher-is-worse kinds); `series_scratch` is the caller's
  // decode buffer for series whose scan range extends into Gorilla-sealed
  // history (untouched when the raw tail covers the detection windows — the
  // common case, which stays zero-copy). Dirty windows append a
  // QuarantineRecord to `quarantine` (the caller's private vector, merged
  // after the parallel scan) instead of reaching the detectors; detector
  // exceptions are caught and quarantined the same way, so one corrupt series
  // can never take down a re-run. Thread-safe: counters are atomic and every
  // other output is the caller's.
  SeriesVerdicts ScanMetric(const MetricId& id, TimePoint as_of,
                            std::vector<Regression>& survivors, std::vector<double>& scratch,
                            TimeSeries& series_scratch,
                            std::vector<QuarantineRecord>& quarantine) const;

  // Scans all metrics of a service, optionally on several threads; returns
  // survivors in deterministic metric order.
  std::vector<Regression> ScanAllMetrics(const std::string& service, TimePoint as_of);

  // The pool the funnel stages fan out on; null (serial) when scan_threads
  // <= 1. Funnel stages call this between ParallelIndexFor batches only —
  // never from inside one (the pool is not reentrant).
  ThreadPool* FunnelPool();

  // Folds per-worker quarantine records into the accumulated per-series map.
  // Record merging is commutative, so the map contents are independent of
  // worker interleaving (determinism across scan_threads values).
  void MergeQuarantine(std::vector<QuarantineRecord>& records);

  // Accounts one isolated exception (funnel stage) against `metric`;
  // `message` is the exception's what() (kept only if the record has none
  // yet — first error wins, which is deterministic because every series is
  // scanned once per run).
  void RecordException(const MetricId& metric, std::string message);

  // Builds the quarantine record for a detector exception isolated inside
  // ScanMetric and counts it against the telemetry.
  void QuarantineDetectorException(const MetricId& id, const char* what,
                                   std::vector<QuarantineRecord>& quarantine) const;

  const TimeSeriesDatabase* db_;
  const ChangeLog* change_log_;
  PipelineOptions options_;

  ChangePointStage change_point_stage_;
  WentAwayDetector went_away_;
  SeasonalityStage seasonality_;
  LongTermDetector long_term_;
  SameRegressionMerger merger_;
  SomDedup som_dedup_;
  CostShiftDetector cost_shift_;
  PairwiseDedup pairwise_;
  std::unique_ptr<RootCauseAnalyzer> root_cause_;  // Null without a change log.

  // Persistent workers; scan_threads - 1 of them, the caller thread is the
  // Nth. Empty (serial) when scan_threads <= 1.
  ThreadPool pool_;
  // Per-worker orientation scratch, reused across metrics and re-runs.
  std::vector<std::vector<double>> worker_scratch_;
  // Per-worker decode buffers for scans that reach into sealed history.
  std::vector<TimeSeries> worker_series_scratch_;

  // Self-observability state. The registry owns the instruments; obs_ holds
  // pre-resolved handles so the hot path never does a name lookup.
  TelemetryRegistry telemetry_;
  Instruments obs_;

  // Accumulated dirty-series accounting across re-runs; std::map keeps
  // canonical MetricId order for the report snapshot.
  std::map<MetricId, QuarantineRecord> quarantine_;
};

}  // namespace fbdetect

#endif  // FBDETECT_SRC_CORE_PIPELINE_H_
