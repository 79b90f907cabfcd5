#include "src/core/pipeline.h"

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/tsdb/window.h"

namespace fbdetect {

namespace {

// Canonical survivor order: MetricId's field-wise ordering, short-term before
// long-term within a metric. (metric, long_term) is unique — each path emits
// at most one candidate per metric — so the order is total and the sort is
// deterministic. The serial scan emits survivors in exactly this order
// (ListMetrics is sorted with the same comparator; the short-term push
// precedes the long-term push in ScanMetric), which is what makes threaded
// and single-threaded runs byte-identical.
bool CanonicalSurvivorOrder(const Regression& a, const Regression& b) {
  if (a.metric != b.metric) {
    return a.metric < b.metric;
  }
  return a.long_term < b.long_term;
}

}  // namespace

Pipeline::Pipeline(const TimeSeriesDatabase* db, const ChangeLog* change_log,
                   const CodeInfoProvider* code_info, PipelineOptions options)
    : db_(db),
      change_log_(change_log),
      options_(std::move(options)),
      change_point_stage_(options_.detection),
      long_term_(options_.detection),
      merger_(options_.detection.windows.analysis),
      cost_shift_(db),
      pool_(static_cast<size_t>(std::max(1, options_.scan_threads) - 1)),
      worker_scratch_(static_cast<size_t>(std::max(1, options_.scan_threads))),
      worker_series_scratch_(static_cast<size_t>(std::max(1, options_.scan_threads))) {
  FBD_CHECK(db_ != nullptr);
  // One §5.6 lookback: the commits root-cause analysis ranks are the ones
  // that define commit cost domains.
  const RootCauseConfig root_cause_config;
  cost_shift_.AddDefaultDetectors(code_info, change_log_, root_cause_config.lookback);
  if (change_log_ != nullptr) {
    root_cause_ = std::make_unique<RootCauseAnalyzer>(change_log_, code_info, root_cause_config);
  }
  RegisterInstruments();
}

void Pipeline::RegisterInstruments() {
  const bool clocks = options_.telemetry.enabled;
  auto counter = [this](const char* name) { return telemetry_.GetCounter(name); };
  auto histogram = [this, clocks](const std::string& name) {
    return clocks ? telemetry_.GetHistogram(name) : nullptr;
  };
  auto stage = [this, &histogram](const char* name, bool orchestrator_cpu) {
    StageInstruments instruments;
    const std::string base = std::string("pipeline.stage.") + name;
    instruments.in = telemetry_.GetCounter(base + ".in");
    instruments.out = telemetry_.GetCounter(base + ".out");
    instruments.wall_ns = histogram(base + ".wall_ns");
    if (orchestrator_cpu) {
      instruments.cpu_ns = histogram(base + ".cpu_ns");
    }
    return instruments;
  };

  obs_.runs = counter("pipeline.runs");
  obs_.series_in = counter("pipeline.scan.series_in");
  obs_.series_no_data = counter("pipeline.scan.series_no_data");
  obs_.series_decode_failures = counter("pipeline.scan.series_decode_failures");
  obs_.windows_flagged = counter("pipeline.scan.windows_flagged");
  obs_.windows_quarantined = counter("pipeline.scan.windows_quarantined");
  obs_.sanitizer_verdict[0] = counter("pipeline.sanitizer.verdict_ok");
  obs_.sanitizer_verdict[1] = counter("pipeline.sanitizer.verdict_gappy");
  obs_.sanitizer_verdict[2] = counter("pipeline.sanitizer.verdict_flapping");
  obs_.sanitizer_verdict[3] = counter("pipeline.sanitizer.verdict_corrupt");
  obs_.detector_exceptions = counter("pipeline.scan.detector_exceptions");
  obs_.funnel_exceptions = counter("pipeline.funnel.exceptions");
  obs_.reported = counter("pipeline.reported");
  obs_.long_term_detected = counter("pipeline.stage.long_term.detected");

  // Scan sub-stages run on pool workers: wall only (a per-thread CPU read is
  // a syscall, too hot for per-series sites). Funnel stages run on the
  // orchestrating thread between fan-outs: wall + that thread's CPU.
  obs_.change_point = stage("change_point", /*orchestrator_cpu=*/false);
  obs_.went_away = stage("went_away", false);
  obs_.seasonality = stage("seasonality", false);
  obs_.threshold = stage("threshold", false);
  obs_.long_term = stage("long_term", false);
  obs_.fingerprint = stage("fingerprint", true);
  obs_.same_merger = stage("same_regression_merger", true);
  obs_.som_dedup = stage("som_dedup", true);
  obs_.cost_shift = stage("cost_shift", true);
  obs_.pairwise = stage("pairwise_dedup", true);
  obs_.root_cause = stage("root_cause", true);

  obs_.same_merger.out_long_term =
      counter("pipeline.stage.same_regression_merger.out_long_term");
  obs_.som_dedup.out_long_term = counter("pipeline.stage.som_dedup.out_long_term");
  obs_.cost_shift.out_long_term = counter("pipeline.stage.cost_shift.out_long_term");
  obs_.pairwise.out_long_term = counter("pipeline.stage.pairwise_dedup.out_long_term");

  obs_.scan_wall_ns = histogram("pipeline.scan.wall_ns");
  obs_.run_wall_ns = histogram("pipeline.run.wall_ns");
  obs_.seasonality_estimate_ns = histogram("pipeline.substage.seasonality_estimate.wall_ns");
  obs_.stl_ns = histogram("pipeline.substage.stl.wall_ns");
  obs_.long_term_locate_ns = histogram("pipeline.substage.long_term_locate.wall_ns");
}

SeriesVerdicts Pipeline::ScanMetric(const MetricId& id, TimePoint as_of,
                                    std::vector<Regression>& survivors,
                                    std::vector<double>& scratch, TimeSeries& series_scratch,
                                    std::vector<QuarantineRecord>& quarantine) const {
  SeriesVerdicts verdicts;
  obs_.series_in->Increment();
  // Points before the detection windows are irrelevant, so the lookup only
  // needs [as_of - total, inf): when those live in the raw tail this is the
  // PR 1 zero-copy path; otherwise sealed chunks decode into the worker's
  // scratch buffer.
  const TimePoint scan_begin = as_of - options_.detection.windows.Total();
  Status scan_status;
  const TimeSeries* series = db_->SeriesForScan(id, scan_begin, series_scratch, &scan_status);
  if (series == nullptr) {
    if (!scan_status.ok()) {
      // Corrupt sealed storage: quarantine the series for this window
      // instead of letting the decode abort the re-run.
      obs_.series_decode_failures->Increment();
      QuarantineRecord record;
      record.metric = id;
      record.worst = QualityVerdict::kCorrupt;
      record.windows_flagged = 1;
      record.windows_quarantined = 1;
      record.decode_failures = 1;
      record.last_error = scan_status.message();
      quarantine.push_back(std::move(record));
      verdicts.quarantined = true;
    } else {
      obs_.series_no_data->Increment();
    }
    return verdicts;
  }
  // Zero-copy windows + one orientation pass shared by both paths. For
  // higher-is-worse kinds the view aliases the series' storage directly.
  const WindowView windows = ExtractWindowView(*series, as_of, options_.detection.windows);

  // Data-quality gate: classify the window before any detector touches it.
  // A quarantined window is skipped for this re-run only — the series stays
  // in the database and is re-inspected at the next re-run.
  verdicts.quality = InspectWindow(id.kind, windows, options_.detection.windows);
  const WindowQuality& quality = verdicts.quality;
  const bool quarantined = ShouldQuarantine(quality.verdict);
  if (quality.observed) {
    obs_.sanitizer_verdict[static_cast<size_t>(quality.verdict)]->Increment();
  }
  if (quality.observed &&
      (quality.verdict != QualityVerdict::kOk || quality.missing > 0 || quality.skew > 0)) {
    obs_.windows_flagged->Increment();
    QuarantineRecord record;
    record.metric = id;
    record.worst = quality.verdict;
    record.windows_flagged = 1;
    record.windows_quarantined = quarantined ? 1 : 0;
    record.non_finite = quality.non_finite;
    record.negative = quality.negative;
    record.missing = quality.missing;
    record.flap_windows = (quality.late_start || quality.early_end) ? 1 : 0;
    record.max_skew = quality.skew;
    quarantine.push_back(std::move(record));
  }
  if (quarantined) {
    obs_.windows_quarantined->Increment();
    verdicts.quarantined = true;
    return verdicts;
  }

  const double sign = LowerIsRegression(id.kind) ? -1.0 : 1.0;
  const ScanView view = OrientWindows(windows, sign, scratch);
  // The seasonality stage and the long-term detector estimate seasonality
  // and run STL over the same window with the same arguments: whichever asks
  // first computes each, inside its own stage timer.
  WindowSeasonality seasonality(view.full, obs_.seasonality_estimate_ns, obs_.stl_ns);

  // Detector exceptions are isolated to the series: one throwing detector
  // quarantines this metric for this re-run instead of unwinding through the
  // worker (ThreadPool would rethrow at join and abort the whole scan).
  try {
    // ---- Short-term path ----
    obs_.change_point.in->Increment();
    std::optional<ScanCandidate> candidate;
    {
      StageTimer timer(obs_.change_point.wall_ns);
      candidate = change_point_stage_.DetectCandidate(view);
    }
    verdicts.change_point = candidate;
    if (candidate) {
      obs_.change_point.out->Increment();
      obs_.went_away.in->Increment();
      // The previous-day window follows the tick the sanitizer inferred, so
      // a dropped sample cannot shrink it.
      const size_t points_per_day =
          quality.tick > 0 ? static_cast<size_t>(kDay / quality.tick) : 0;
      WentAwayVerdict went_away;
      {
        StageTimer timer(obs_.went_away.wall_ns);
        went_away = went_away_.Evaluate(view, *candidate, points_per_day);
      }
      verdicts.went_away = went_away;
      if (went_away.keep) {
        obs_.went_away.out->Increment();
        obs_.seasonality.in->Increment();
        SeasonalityVerdict seasonal;
        {
          StageTimer timer(obs_.seasonality.wall_ns);
          seasonal = seasonality_.Evaluate(view, *candidate, seasonality);
        }
        verdicts.seasonality = seasonal;
        if (!seasonal.seasonal_filtered) {
          obs_.seasonality.out->Increment();
          obs_.threshold.in->Increment();
          bool passes;
          {
            StageTimer timer(obs_.threshold.wall_ns);
            passes = PassesThreshold(*candidate, options_.detection);
          }
          verdicts.threshold = passes;
          if (passes) {
            obs_.threshold.out->Increment();
            // First (and only) copy of window data on this path: the survivor.
            Regression regression = MaterializeRegression(id, view, *candidate);
            if (root_cause_ != nullptr) {
              regression.candidate_root_causes = root_cause_->QuickCandidates(regression);
            }
            survivors.push_back(std::move(regression));
          }
        }
      }
    }

    // ---- Long-term path ----
    if (options_.detection.enable_long_term) {
      obs_.long_term.in->Increment();
      std::optional<Regression> long_candidate;
      {
        StageTimer timer(obs_.long_term.wall_ns);
        long_candidate = long_term_.Detect(id, view, seasonality, obs_.long_term_locate_ns);
      }
      if (long_candidate) {
        obs_.long_term_detected->Increment();
        verdicts.long_term_detected = true;
        // The long-term detector applies the threshold internally; recheck for
        // the funnel row (Table 3 shows ~1/1.03 here).
        if (PassesThreshold(*long_candidate, options_.detection)) {
          // `out` counts post-threshold survivors, so stage.fingerprint.in ==
          // stage.threshold.out + stage.long_term.out reconciles exactly.
          obs_.long_term.out->Increment();
          if (root_cause_ != nullptr) {
            long_candidate->candidate_root_causes = root_cause_->QuickCandidates(*long_candidate);
          }
          survivors.push_back(std::move(*long_candidate));
        }
      }
    }
  } catch (const std::exception& e) {
    QuarantineDetectorException(id, e.what(), quarantine);
    verdicts.quarantined = true;
  } catch (...) {
    QuarantineDetectorException(id, "unknown exception", quarantine);
    verdicts.quarantined = true;
  }
  return verdicts;
}

SeriesVerdicts Pipeline::ScanSeries(const MetricId& id, TimePoint as_of) {
  std::vector<Regression> survivors;
  std::vector<double> scratch;
  TimeSeries series_scratch;
  std::vector<QuarantineRecord> quarantine;
  SeriesVerdicts verdicts =
      ScanMetric(id, as_of, survivors, scratch, series_scratch, quarantine);
  MergeQuarantine(quarantine);
  verdicts.survivors = std::move(survivors);
  return verdicts;
}

void Pipeline::QuarantineDetectorException(const MetricId& id, const char* what,
                                           std::vector<QuarantineRecord>& quarantine) const {
  obs_.detector_exceptions->Increment();
  QuarantineRecord record;
  record.metric = id;
  record.worst = QualityVerdict::kCorrupt;
  record.windows_flagged = 1;
  record.windows_quarantined = 1;
  record.exceptions = 1;
  record.last_error = what;
  quarantine.push_back(std::move(record));
}

std::vector<Regression> Pipeline::ScanAllMetrics(const std::string& service, TimePoint as_of) {
  const std::vector<MetricId> ids = db_->ListMetrics(service);
  const int threads = std::max(1, options_.scan_threads);
  if (threads == 1 || ids.size() < 2) {
    std::vector<Regression> survivors;
    std::vector<QuarantineRecord> quarantine;
    for (const MetricId& id : ids) {
      ScanMetric(id, as_of, survivors, worker_scratch_[0], worker_series_scratch_[0],
                 quarantine);
    }
    MergeQuarantine(quarantine);
    return survivors;
  }
  // Static partition by stride; each worker keeps private survivors and
  // quarantine records, merged afterwards in canonical order (record merging
  // is commutative) for determinism.
  const size_t num_workers = std::min<size_t>(static_cast<size_t>(threads), ids.size());
  std::vector<std::vector<Regression>> worker_survivors(num_workers);
  std::vector<std::vector<QuarantineRecord>> worker_quarantine(num_workers);
  pool_.ParallelFor(num_workers, [&](size_t w) {
    for (size_t i = w; i < ids.size(); i += num_workers) {
      ScanMetric(ids[i], as_of, worker_survivors[w], worker_scratch_[w],
                 worker_series_scratch_[w], worker_quarantine[w]);
    }
  });
  std::vector<Regression> survivors;
  for (size_t w = 0; w < num_workers; ++w) {
    MergeQuarantine(worker_quarantine[w]);
    survivors.insert(survivors.end(), std::make_move_iterator(worker_survivors[w].begin()),
                     std::make_move_iterator(worker_survivors[w].end()));
  }
  std::sort(survivors.begin(), survivors.end(), CanonicalSurvivorOrder);
  return survivors;
}

void Pipeline::MergeQuarantine(std::vector<QuarantineRecord>& records) {
  for (QuarantineRecord& record : records) {
    QuarantineRecord& merged = quarantine_[record.metric];
    merged.metric = record.metric;
    merged.Merge(record);
  }
  records.clear();
}

void Pipeline::RecordException(const MetricId& metric, std::string message) {
  obs_.funnel_exceptions->Increment();
  QuarantineRecord& record = quarantine_[metric];
  record.metric = metric;
  record.worst = std::max(record.worst, QualityVerdict::kCorrupt);
  ++record.exceptions;
  if (record.last_error.empty() && !message.empty()) {
    record.last_error = std::move(message);
  }
}

QuarantineReport Pipeline::quarantine_report() const {
  // Snapshot the scan-side records, then fold in the database's ingest-time
  // rejects (duplicates / out-of-order points dropped before storage).
  std::map<MetricId, QuarantineRecord> merged = quarantine_;
  db_->ForEachIngestReject([&merged](const MetricId& id, uint64_t duplicate,
                                     uint64_t out_of_order) {
    QuarantineRecord& record = merged[id];
    record.metric = id;
    record.dropped_duplicate = duplicate;
    record.dropped_out_of_order = out_of_order;
  });
  QuarantineReport report;
  report.records.reserve(merged.size());
  for (const auto& [id, record] : merged) {
    report.records.push_back(record);
  }
  return report;
}

ThreadPool* Pipeline::FunnelPool() {
  return options_.scan_threads > 1 ? &pool_ : nullptr;
}

FunnelStats Pipeline::Funnel(bool long_term) const {
  // After both paths meet, each stage counts them together and
  // `out_long_term` splits off the long-term share.
  const auto path_share = [long_term](const StageInstruments& stage) {
    const uint64_t long_share = stage.out_long_term->value();
    return long_term ? long_share : stage.out->value() - long_share;
  };
  FunnelStats funnel;
  if (long_term) {
    funnel.change_points = obs_.long_term_detected->value();
    funnel.after_threshold = obs_.long_term.out->value();
  } else {
    funnel.change_points = obs_.change_point.out->value();
    funnel.after_went_away = obs_.went_away.out->value();
    funnel.after_seasonality = obs_.seasonality.out->value();
    funnel.after_threshold = obs_.threshold.out->value();
  }
  funnel.after_same_merger = path_share(obs_.same_merger);
  funnel.after_som_dedup = path_share(obs_.som_dedup);
  funnel.after_cost_shift =
      options_.enable_cost_shift ? path_share(obs_.cost_shift) : funnel.after_som_dedup;
  funnel.after_pairwise = path_share(obs_.pairwise);
  return funnel;
}

std::vector<Regression> Pipeline::RunAt(const std::string& service, TimePoint as_of) {
  StageTimer run_timer(obs_.run_wall_ns);
  obs_.runs->Increment();

  std::vector<Regression> survivors;
  {
    StageTimer timer(obs_.scan_wall_ns);
    survivors = ScanAllMetrics(service, as_of);
  }

  // Counts a funnel stage's survivors, and the long-term share of them.
  auto count_out = [](const StageInstruments& stage,
                      const std::vector<FunnelCandidate>& candidates) {
    stage.out->Add(candidates.size());
    stage.out_long_term->Add(static_cast<uint64_t>(
        std::count_if(candidates.begin(), candidates.end(),
                      [](const FunnelCandidate& c) { return c.regression.long_term; })));
  };

  // Stage: fingerprints — the text/shape artifacts every later stage reuses,
  // computed exactly once per survivor, in parallel into per-index slots.
  obs_.fingerprint.in->Add(survivors.size());
  std::vector<FunnelCandidate> candidates(survivors.size());
  std::vector<uint8_t> fingerprint_failed(survivors.size(), 0);
  std::vector<std::string> fingerprint_errors(survivors.size());
  {
    StageTimer timer(obs_.fingerprint.wall_ns, obs_.fingerprint.cpu_ns);
    ParallelIndexFor(survivors.size(), FunnelPool(), [&](size_t i) {
      try {
        candidates[i].fingerprint = ComputeFingerprint(survivors[i]);
        candidates[i].regression = std::move(survivors[i]);
      } catch (const std::exception& e) {
        fingerprint_failed[i] = 1;  // Survivor left intact for accounting.
        fingerprint_errors[i] = e.what();
      } catch (...) {
        fingerprint_failed[i] = 1;
        fingerprint_errors[i] = "unknown exception";
      }
    });
  }
  if (std::find(fingerprint_failed.begin(), fingerprint_failed.end(), 1) !=
      fingerprint_failed.end()) {
    // Quarantine candidates whose fingerprinting threw; the rest keep their
    // original relative order.
    std::vector<FunnelCandidate> kept;
    kept.reserve(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (fingerprint_failed[i] != 0) {
        RecordException(survivors[i].metric, std::move(fingerprint_errors[i]));
      } else {
        kept.push_back(std::move(candidates[i]));
      }
    }
    candidates = std::move(kept);
  }
  survivors.clear();
  obs_.fingerprint.out->Add(candidates.size());
  obs_.same_merger.in->Add(candidates.size());

  // Stage: SameRegressionMerger (stateful and order-dependent: serial).
  std::vector<FunnelCandidate> fresh;
  {
    StageTimer timer(obs_.same_merger.wall_ns, obs_.same_merger.cpu_ns);
    fresh = merger_.Filter(std::move(candidates));
  }
  count_out(obs_.same_merger, fresh);
  obs_.som_dedup.in->Add(fresh.size());

  // Stage: SOMDedup — clusters metrics of the SAME type within this run's
  // analysis window (§5.5.1); cross-type merging is PairwiseDedup's job.
  // A single cohort parallelizes internally; multiple cohorts run
  // concurrently with serial internals (the pool is not reentrant). Either
  // way results land in kind-ascending slots, independent of scheduling.
  std::vector<FunnelCandidate> representatives;
  {
    StageTimer timer(obs_.som_dedup.wall_ns, obs_.som_dedup.cpu_ns);
    std::map<MetricKind, std::vector<FunnelCandidate>> by_kind;
    for (FunnelCandidate& candidate : fresh) {
      by_kind[candidate.regression.metric.kind].push_back(std::move(candidate));
    }
    if (by_kind.size() <= 1) {
      for (auto& [kind, cohort] : by_kind) {
        representatives = som_dedup_.Deduplicate(std::move(cohort), FunnelPool());
      }
    } else {
      std::vector<std::vector<FunnelCandidate>*> cohorts;
      cohorts.reserve(by_kind.size());
      for (auto& [kind, cohort] : by_kind) {
        cohorts.push_back(&cohort);
      }
      std::vector<std::vector<FunnelCandidate>> cohort_reps(cohorts.size());
      ParallelIndexFor(cohorts.size(), FunnelPool(), [&](size_t i) {
        cohort_reps[i] = som_dedup_.Deduplicate(std::move(*cohorts[i]), nullptr);
      });
      for (std::vector<FunnelCandidate>& reps : cohort_reps) {
        representatives.insert(representatives.end(), std::make_move_iterator(reps.begin()),
                               std::make_move_iterator(reps.end()));
      }
    }
  }
  count_out(obs_.som_dedup, representatives);

  // Stage: cost-shift filtering — verdicts in parallel into per-index slots,
  // then a serial in-order sweep keeps the survivors.
  std::vector<FunnelCandidate> shift_free;
  if (options_.enable_cost_shift) {
    obs_.cost_shift.in->Add(representatives.size());
    StageTimer timer(obs_.cost_shift.wall_ns, obs_.cost_shift.cpu_ns);
    std::vector<uint8_t> is_shift(representatives.size(), 0);
    std::vector<uint8_t> shift_failed(representatives.size(), 0);
    std::vector<std::string> shift_errors(representatives.size());
    ParallelIndexFor(representatives.size(), FunnelPool(), [&](size_t i) {
      try {
        is_shift[i] = cost_shift_.Evaluate(representatives[i].regression).is_cost_shift ? 1 : 0;
      } catch (const std::exception& e) {
        // A throwing detector must not abort the funnel; treat the candidate
        // as not-a-shift (it stays reportable) and account the exception.
        is_shift[i] = 0;
        shift_failed[i] = 1;
        shift_errors[i] = e.what();
      } catch (...) {
        is_shift[i] = 0;
        shift_failed[i] = 1;
        shift_errors[i] = "unknown exception";
      }
    });
    shift_free.reserve(representatives.size());
    for (size_t i = 0; i < representatives.size(); ++i) {
      if (shift_failed[i] != 0) {
        RecordException(representatives[i].regression.metric, std::move(shift_errors[i]));
      }
      if (is_shift[i] == 0) {
        shift_free.push_back(std::move(representatives[i]));
      }
    }
    count_out(obs_.cost_shift, shift_free);
  } else {
    shift_free = std::move(representatives);
  }

  // Stage: PairwiseDedup (per-candidate group scoring fans over the pool).
  obs_.pairwise.in->Add(shift_free.size());
  std::vector<int> new_groups;
  {
    StageTimer timer(obs_.pairwise.wall_ns, obs_.pairwise.cpu_ns);
    new_groups = pairwise_.Ingest(std::move(shift_free), FunnelPool());
  }

  // Stage: root-cause analysis on the new groups' representatives, analyzed
  // IN PLACE inside their groups (distinct groups, so the parallel writes
  // never alias) and copied once into the report.
  if (root_cause_ != nullptr) {
    obs_.root_cause.in->Add(new_groups.size());
    StageTimer timer(obs_.root_cause.wall_ns, obs_.root_cause.cpu_ns);
    std::vector<uint8_t> analyze_failed(new_groups.size(), 0);
    std::vector<std::string> analyze_errors(new_groups.size());
    ParallelIndexFor(new_groups.size(), FunnelPool(), [&](size_t i) {
      try {
        root_cause_->Analyze(pairwise_.GroupRepresentative(new_groups[i]));
      } catch (const std::exception& e) {
        analyze_failed[i] = 1;  // Reported without root causes.
        analyze_errors[i] = e.what();
      } catch (...) {
        analyze_failed[i] = 1;
        analyze_errors[i] = "unknown exception";
      }
    });
    uint64_t analyzed = 0;
    for (size_t i = 0; i < new_groups.size(); ++i) {
      if (analyze_failed[i] != 0) {
        RecordException(pairwise_.GroupRepresentative(new_groups[i]).metric,
                        std::move(analyze_errors[i]));
      } else {
        ++analyzed;
      }
    }
    obs_.root_cause.out->Add(analyzed);
  }
  std::vector<Regression> reported;
  reported.reserve(new_groups.size());
  for (int group_id : new_groups) {
    reported.push_back(pairwise_.GroupRepresentative(group_id));
  }
  obs_.pairwise.out->Add(reported.size());
  obs_.pairwise.out_long_term->Add(static_cast<uint64_t>(
      std::count_if(reported.begin(), reported.end(),
                    [](const Regression& r) { return r.long_term; })));
  obs_.reported->Add(reported.size());
  return reported;
}

std::vector<Regression> Pipeline::RunPeriod(const std::string& service, TimePoint begin,
                                            TimePoint end) {
  std::vector<Regression> all_reports;
  const Duration interval = options_.detection.rerun_interval;
  FBD_CHECK(interval > 0);
  for (TimePoint as_of = begin + interval; as_of <= end; as_of += interval) {
    std::vector<Regression> reports = RunAt(service, as_of);
    all_reports.insert(all_reports.end(), std::make_move_iterator(reports.begin()),
                       std::make_move_iterator(reports.end()));
  }
  return all_reports;
}

}  // namespace fbdetect
