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
// survivors and funnel counters are merged in canonical (MetricId, path)
// order, so the output is byte-identical for any scan_threads value.
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
// stage, kept separately for the short-term and long-term paths.
#ifndef FBDETECT_SRC_CORE_PIPELINE_H_
#define FBDETECT_SRC_CORE_PIPELINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/observe/telemetry.h"
#include "src/observe/telemetry_sink.h"
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

// Survivor counts after each Fig. 6 funnel stage (Table 3), kept separately
// for the short-term and long-term paths.
struct FunnelStats {
  uint64_t change_points = 0;
  uint64_t after_went_away = 0;
  uint64_t after_seasonality = 0;
  uint64_t after_threshold = 0;
  uint64_t after_same_merger = 0;
  uint64_t after_som_dedup = 0;
  uint64_t after_cost_shift = 0;
  uint64_t after_pairwise = 0;

  void Accumulate(const FunnelStats& other);
};

// Self-observability over the pipeline itself (DESIGN.md §12). Off by
// default: with enabled = false the hot path pays one predictable branch per
// instrumented site and no clock reads. When enabled, every stage records
// candidate-in/out attrition counters (deterministic: byte-identical for any
// scan_threads) and wall/CPU latency histograms (runtime).
struct TelemetryOptions {
  bool enabled = false;
  // Self-hosting (DESIGN.md §15): when set (and telemetry is enabled), every
  // RunAt ends by persisting a registry snapshot into this database as
  // ordinary series under `self_host_service` — counters as kApplication
  // levels, histogram per-interval means as kLatency series — so the
  // pipeline's own attrition/latency metrics are scanned for regressions by
  // the standard detection stack. May point at the scanned database itself
  // (the write happens after the run's readers are done). Must outlive the
  // pipeline.
  TimeSeriesDatabase* self_host_db = nullptr;
  std::string self_host_service = "fbdetect.self";
};

struct PipelineOptions {
  DetectionConfig detection;
  TelemetryOptions telemetry;
  bool enable_cost_shift = true;   // AdServing disables it (Table 3).
  CostShiftConfig cost_shift;
  SomDedupConfig som_dedup;
  PairwiseRule pairwise_rule;
  RootCauseConfig root_cause;
  // Data-quality gate in front of the detectors; dirty windows are
  // quarantined (see src/core/sanitizer.h) instead of scanned.
  SanitizerConfig sanitizer;
  // Per-series detection (stages 1-3 + threshold) is embarrassingly
  // parallel; production FBDetect fans it out across a serverless platform
  // (§5.1). >1 scans series on that many threads (a persistent pool, spawned
  // once at construction); results are merged in deterministic metric order,
  // so outputs are identical for any value.
  int scan_threads = 1;
};

class Pipeline {
 public:
  // `change_log` and `code_info` may be null (root-cause analysis and the
  // structural cost domains degrade gracefully). Non-null pointers must
  // outlive the pipeline.
  Pipeline(const TimeSeriesDatabase* db, const ChangeLog* change_log,
           const CodeInfoProvider* code_info, PipelineOptions options);

  // Supplies the stack-trace-overlap feature to PairwiseDedup. Must be called
  // before the first run to take effect. The function must be thread-safe
  // when scan_threads > 1 (pairwise scoring fans over the pool).
  void set_stack_overlap(StackOverlapFn overlap);

  // One re-run at `as_of`: scans every series of `service` and returns the
  // representatives of NEWLY opened regression groups, root causes attached.
  std::vector<Regression> RunAt(const std::string& service, TimePoint as_of);

  // Periodic re-runs over [begin + interval, end]; returns all newly reported
  // regressions across runs.
  std::vector<Regression> RunPeriod(const std::string& service, TimePoint begin, TimePoint end);

  const FunnelStats& short_term_funnel() const { return short_funnel_; }
  const FunnelStats& long_term_funnel() const { return long_funnel_; }

  // Self-observability registry (empty when TelemetryOptions::enabled is
  // false). Deterministic counters reconcile exactly with the funnel: e.g.
  // scan.series_in == series_no_data + decode_failures + windows_quarantined
  // + stage.change_point.in, and stage.fingerprint.in == stage.threshold.out
  // + stage.long_term.out.
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
  // Pre-resolved instrument handles. All null (and `enabled` false) when
  // telemetry is off, so the hot path pays one predictable branch per site
  // and never touches the registry, an atomic, or a clock. Counters tagged
  // deterministic count pipeline events only; histograms and pool mirrors are
  // runtime-dependent and excluded from the deterministic export.
  struct StageInstruments {
    Counter* in = nullptr;
    Counter* out = nullptr;
    Histogram* wall_ns = nullptr;
    Histogram* cpu_ns = nullptr;  // Orchestrating thread only; null on scan stages.
  };
  struct Instruments {
    bool enabled = false;
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
    StageInstruments change_point, went_away, seasonality, threshold, long_term,
        fingerprint, same_merger, som_dedup, cost_shift, pairwise, root_cause;
    Histogram* scan_wall_ns = nullptr;  // Whole ScanAllMetrics, per run.
    Histogram* run_wall_ns = nullptr;   // Whole RunAt, per run.
    // Runtime mirrors, Set() from the pool/TSDB sources at SyncTelemetry.
    Counter* pool_batches = nullptr;
    Counter* pool_tasks = nullptr;
    Counter* pool_max_batch_tasks = nullptr;
    Counter* pool_wall_ns = nullptr;
    // Deterministic mirrors of the database's tier accounting (one lookup per
    // series per re-run regardless of scan_threads).
    Counter* tsdb_tail_hits = nullptr;
    Counter* tsdb_sealed_decodes = nullptr;
    Counter* tsdb_decode_failures = nullptr;
    Counter* tsdb_misses = nullptr;
    Counter* tsdb_list_cache_hits = nullptr;
    Counter* tsdb_list_cache_misses = nullptr;
    Counter* tsdb_list_cache_shard_refreshes = nullptr;
    // Runtime mirrors of the durable tier (tsdb.durable.* / tsdb.memory.*).
    // Registered only when the scanned database has the tier enabled, so
    // non-durable pipelines see an unchanged instrument set. All kRuntime:
    // their values depend on budgets, commit batching, and crash history.
    bool durable = false;
    Counter* durable_group_commits = nullptr;
    Counter* durable_checkpoint_rewrites = nullptr;
    Counter* durable_log_bytes = nullptr;
    Counter* durable_chunk_file_bytes = nullptr;
    Counter* durable_chunks_persisted = nullptr;
    Counter* durable_chunks_evicted = nullptr;
    Counter* durable_evicted_bytes = nullptr;
    Counter* durable_mapped_readback_decodes = nullptr;
    Counter* durable_recoveries = nullptr;
    Counter* durable_recovered_points = nullptr;
    Counter* durable_materialized_evictions = nullptr;
    Counter* durable_io_errors = nullptr;
    Counter* durable_degraded = nullptr;  // 0/1 gauge.
    Counter* memory_resident_sealed_bytes = nullptr;
    Counter* memory_mapped_sealed_bytes = nullptr;
    Counter* memory_materialized_bytes = nullptr;
  };

  // Registers every instrument with the registry and fills `obs_`.
  void RegisterInstruments();

  // Null when telemetry is off: a StageTimer built from it never reads a
  // clock, which is the disabled-cost contract.
  Histogram* Timed(Histogram* histogram) const {
    return obs_.enabled ? histogram : nullptr;
  }

  // Mirrors the pool's and database's internal counters into the registry so
  // one snapshot covers the whole system. Called once per RunAt.
  void SyncTelemetry();

  // Runs window extraction, the sanitizer, detection stages 1-3 + threshold
  // and the long-term detector for one metric; appends survivors and counts
  // into the provided funnel accumulators and the registry's scan counters.
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
  void ScanMetric(const MetricId& id, TimePoint as_of, std::vector<Regression>& survivors,
                  FunnelStats& short_funnel, FunnelStats& long_funnel,
                  std::vector<double>& scratch, TimeSeries& series_scratch,
                  std::vector<QuarantineRecord>& quarantine) const;

  // Scans all metrics of a service, optionally on several threads; returns
  // survivors in deterministic metric order.
  std::vector<Regression> ScanAllMetrics(const std::string& service, TimePoint as_of);

  // The service's metric list, sorted canonically. Cached across re-runs and
  // invalidated by the database's generation counter, so steady-state scans
  // skip the per-run enumerate-and-sort.
  const std::vector<MetricId>& CachedMetrics(const std::string& service);

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
  Sanitizer sanitizer_;
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

  // CachedMetrics state.
  std::string cached_service_;
  std::vector<MetricId> cached_ids_;
  uint64_t cached_generation_ = 0;
  bool cache_valid_ = false;

  FunnelStats short_funnel_;
  FunnelStats long_funnel_;

  // Self-observability state. The registry owns the instruments; obs_ holds
  // pre-resolved handles so the hot path never does a name lookup.
  TelemetryRegistry telemetry_;
  Instruments obs_;
  // Self-hosting sink; null unless TelemetryOptions::self_host_db is set.
  std::unique_ptr<TelemetrySink> self_sink_;

  // Accumulated dirty-series accounting across re-runs; std::map keeps
  // canonical MetricId order for the report snapshot.
  std::map<MetricId, QuarantineRecord> quarantine_;
};

}  // namespace fbdetect

#endif  // FBDETECT_SRC_CORE_PIPELINE_H_
