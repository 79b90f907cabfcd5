// Simulator for one service of the fleet.
//
// Models what the paper's §2 generative analysis assumes: every server draws
// CPU usage from a clipped normal whose (μ, σ²) depends on its hardware
// generation; the service's code is a call graph of k subroutines whose gCPU
// is measured by the sampling profiler; load follows a diurnal pattern; and
// injected events (regressions, cost shifts, transients, seasonal shifts)
// perturb the generative parameters at their scheduled times.
//
// Per tick, the simulator writes one bucket of every enabled metric into the
// shared TimeSeriesDatabase:
//   * per-subroutine gCPU (stack-trace sampling path),
//   * process-level CPU (fleet average across servers and generations),
//   * service and per-endpoint throughput / latency / error rate,
//   * CT-supply max-throughput and CT-demand peak-request series.
// These are the kinds the simulator's consumers read. The pipeline scans any
// kind /ingest carries, so §3's endpoint cost, per-data-type I/O and
// metadata-annotated gCPU series come in over the wire, not from here.
#ifndef FBDETECT_SRC_FLEET_SERVICE_H_
#define FBDETECT_SRC_FLEET_SERVICE_H_

#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/common/sim_time.h"
#include "src/fleet/events.h"
#include "src/profiling/call_graph.h"
#include "src/profiling/profiler.h"
#include "src/tsdb/database.h"

namespace fbdetect {

struct ServerGeneration {
  double cpu_mean = 0.5;       // Mean utilization in [0, 1].
  double cpu_variance = 0.01;  // Per-sample variance.
  double fraction = 1.0;       // Share of the service's servers.
};

struct ServiceConfig {
  std::string name = "service";
  std::string language = "cpp";
  int num_servers = 1000;
  std::vector<ServerGeneration> generations = {
      {0.40, 0.01, 0.5},
      {0.60, 0.02, 0.5},
  };
  RandomCallGraphOptions call_graph;
  SamplingConfig sampling;
  Duration tick = Minutes(10);

  // Load seasonality (affects throughput and process CPU).
  Duration seasonal_period = kDay;
  double seasonal_load_amplitude = 0.15;

  // Diurnal code-mix seasonality (affects gCPU of a subset of subroutines).
  int num_seasonal_subroutines = 20;
  double seasonal_mix_amplitude = 0.25;

  // Endpoint / service-level metrics.
  int num_endpoints = 8;
  double base_throughput_per_server = 100.0;  // Requests/s at load factor 1.
  double throughput_noise = 0.02;             // Relative standard deviation.
  double base_latency_ms = 50.0;
  double latency_noise = 0.05;
  double base_error_rate = 0.001;
  double error_rate_noise = 0.3;

  bool emit_gcpu = true;
  bool emit_process_cpu = true;
  bool emit_endpoint_metrics = true;
  bool emit_ct_metrics = false;  // CT-supply / CT-demand series.

  uint64_t seed = 1;
};

class ServiceSimulator {
 public:
  explicit ServiceSimulator(const ServiceConfig& config);

  // Schedules an event; its start may be in the past of future ticks but
  // transitions are applied as tick time crosses them.
  void ScheduleEvent(const InjectedEvent& event);

  // Advances to time `t` (one bucket) and stages all metrics into `batch`
  // (which the caller commits). The batched form is the ingestion hot path:
  // metric identities are interned once and reused, so each tick stages
  // packed integer keys without constructing MetricId strings.
  void Tick(TimePoint t, WriteBatch& batch);

  const ServiceConfig& config() const { return config_; }
  const CallGraph& graph() const { return graph_; }
  const std::vector<InjectedEvent>& events() const { return events_; }

 private:
  // Applies start/end transitions for all events whose boundary lies in
  // (last_tick, t].
  void ApplyEventTransitions(TimePoint t);

  // Multiplicative per-node factor currently applied by events.
  void ApplyFactor(NodeId node, double factor);

  // Seasonal load factor at time t (mean 1).
  double LoadFactor(TimePoint t) const;

  // Recomputes effective self costs = base * event factor * seasonal mix.
  void RefreshGraphCosts(TimePoint t);

  // (Re)builds cached interned metric handles for `db`.
  void EnsureHandles(TimeSeriesDatabase& db);

  void EmitGcpu(TimePoint t, WriteBatch& batch);
  void EmitProcessCpu(TimePoint t, WriteBatch& batch);
  void EmitEndpointMetrics(TimePoint t, WriteBatch& batch);
  void EmitCtMetrics(TimePoint t, WriteBatch& batch);

  ServiceConfig config_;
  Rng rng_;
  CallGraph graph_;
  SamplingProfiler profiler_;

  std::vector<double> base_costs_;       // Immutable post-construction.
  std::vector<double> event_factor_;     // Cumulative event multiplier per node.
  std::vector<int> seasonal_phase_;      // Phase bucket per seasonal node (-1 = none).
  double seasonal_mix_amplitude_ = 0.0;  // May be changed by kSeasonalShift.

  double baseline_total_cost_ = 0.0;

  // Service-level effect multipliers from active transients.
  double throughput_factor_ = 1.0;
  double latency_factor_ = 1.0;
  double error_factor_ = 1.0;
  double cpu_factor_ = 1.0;

  std::vector<InjectedEvent> events_;
  std::vector<bool> event_started_;
  std::vector<bool> event_ended_;
  std::vector<double> gradual_applied_;  // Fraction of ramp already applied.

  std::vector<double> endpoint_weights_;
  std::vector<std::string> endpoint_names_;  // "endpoint_<i>", built once.
  TimePoint last_tick_ = -1;

  // Interned metric handles, valid for `handles_db_` only; built lazily on
  // the first tick against a database so each tick stages integer keys.
  struct MetricHandles {
    InternedMetricId process_cpu;
    InternedMetricId service_throughput;
    InternedMetricId ct_supply;
    InternedMetricId ct_demand;
    std::vector<InternedMetricId> endpoint_throughput;
    std::vector<InternedMetricId> endpoint_latency;
    std::vector<InternedMetricId> endpoint_error;
  };
  TimeSeriesDatabase* handles_db_ = nullptr;
  MetricHandles handles_;
};

}  // namespace fbdetect

#endif  // FBDETECT_SRC_FLEET_SERVICE_H_
