#include "src/fleet/service.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace fbdetect {
namespace {

// Normalizes generation fractions so they sum to 1.
std::vector<ServerGeneration> NormalizeGenerations(std::vector<ServerGeneration> generations) {
  FBD_CHECK(!generations.empty());
  double total = 0.0;
  for (const ServerGeneration& g : generations) {
    FBD_CHECK(g.fraction >= 0.0);
    total += g.fraction;
  }
  FBD_CHECK(total > 0.0);
  for (ServerGeneration& g : generations) {
    g.fraction /= total;
  }
  return generations;
}

}  // namespace

ServiceSimulator::ServiceSimulator(const ServiceConfig& config)
    : config_(config),
      rng_(config.seed),
      graph_(GenerateRandomCallGraph(config.call_graph, rng_)),
      profiler_(config.name, config.sampling),
      seasonal_mix_amplitude_(config.seasonal_mix_amplitude) {
  config_.generations = NormalizeGenerations(config_.generations);
  FBD_CHECK(config_.tick > 0);
  FBD_CHECK(config_.num_servers > 0);

  const size_t n = graph_.node_count();
  base_costs_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    base_costs_[i] = graph_.node(static_cast<NodeId>(i)).self_cost;
  }
  event_factor_.assign(n, 1.0);
  seasonal_phase_.assign(n, -1);
  // Choose the diurnal-mix subroutines deterministically from the seed.
  const int seasonal = std::min<int>(config_.num_seasonal_subroutines, static_cast<int>(n));
  for (int i = 0; i < seasonal; ++i) {
    const size_t node = rng_.NextUint64(n);
    seasonal_phase_[node] = static_cast<int>(rng_.NextUint64(8));
  }
  baseline_total_cost_ = graph_.TotalCost();

  endpoint_weights_.resize(static_cast<size_t>(std::max(1, config_.num_endpoints)));
  double weight_total = 0.0;
  for (double& w : endpoint_weights_) {
    w = rng_.Uniform(0.5, 2.0);
    weight_total += w;
  }
  for (double& w : endpoint_weights_) {
    w /= weight_total;
  }

  endpoint_names_.reserve(endpoint_weights_.size());
  for (size_t e = 0; e < endpoint_weights_.size(); ++e) {
    endpoint_names_.push_back("endpoint_" + std::to_string(e));
  }
}

void ServiceSimulator::EnsureHandles(TimeSeriesDatabase& db) {
  if (handles_db_ == &db) {
    return;
  }
  handles_db_ = &db;
  handles_ = MetricHandles{};
  handles_.process_cpu = db.Intern(MetricId{config_.name, MetricKind::kCpu, {}, {}});
  handles_.service_throughput =
      db.Intern(MetricId{config_.name, MetricKind::kThroughput, {}, {}});
  handles_.ct_supply = db.Intern(MetricId{config_.name, MetricKind::kMaxThroughput, {}, {}});
  handles_.ct_demand = db.Intern(MetricId{config_.name, MetricKind::kPeakDemand, {}, {}});
  for (const std::string& endpoint : endpoint_names_) {
    handles_.endpoint_throughput.push_back(
        db.Intern(MetricId{config_.name, MetricKind::kThroughput, endpoint, {}}));
    handles_.endpoint_latency.push_back(
        db.Intern(MetricId{config_.name, MetricKind::kLatency, endpoint, {}}));
    handles_.endpoint_error.push_back(
        db.Intern(MetricId{config_.name, MetricKind::kErrorRate, endpoint, {}}));
  }
}

void ServiceSimulator::ScheduleEvent(const InjectedEvent& event) {
  FBD_CHECK(event.service == config_.name);
  events_.push_back(event);
  event_started_.push_back(false);
  event_ended_.push_back(false);
  gradual_applied_.push_back(0.0);
}

void ServiceSimulator::ApplyFactor(NodeId node, double factor) {
  event_factor_[static_cast<size_t>(node)] *= factor;
}

void ServiceSimulator::ApplyEventTransitions(TimePoint t) {
  for (size_t i = 0; i < events_.size(); ++i) {
    const InjectedEvent& event = events_[i];
    const NodeId target =
        event.subroutine.empty() ? kInvalidNode : graph_.FindByName(event.subroutine);

    // Start transition.
    if (!event_started_[i] && t >= event.start) {
      event_started_[i] = true;
      switch (event.kind) {
        case EventKind::kStepRegression:
          if (target != kInvalidNode) {
            ApplyFactor(target, 1.0 + event.magnitude);
          } else {
            // Service-level regression: per-request CPU rises. Incoming
            // traffic (throughput/demand) is exogenous and unaffected;
            // capacity effects surface via the CT max-throughput series,
            // which divides by cpu_factor_.
            cpu_factor_ *= 1.0 + event.magnitude;
          }
          break;
        case EventKind::kGradualRegression:
          // Handled incrementally below.
          break;
        case EventKind::kCostShift: {
          const NodeId source = graph_.FindByName(event.shift_source);
          if (source != kInvalidNode && target != kInvalidNode) {
            // Move `magnitude` fraction of the source's base cost to target.
            const double source_cost =
                base_costs_[static_cast<size_t>(source)] * event_factor_[static_cast<size_t>(source)];
            const double moved = event.magnitude * source_cost;
            const double target_cost =
                base_costs_[static_cast<size_t>(target)] * event_factor_[static_cast<size_t>(target)];
            if (source_cost > 0.0) {
              event_factor_[static_cast<size_t>(source)] *= (source_cost - moved) / source_cost;
            }
            if (target_cost > 0.0) {
              event_factor_[static_cast<size_t>(target)] *= (target_cost + moved) / target_cost;
            } else {
              // Target had no cost: give it the moved amount via base adjust.
              base_costs_[static_cast<size_t>(target)] = moved;
              event_factor_[static_cast<size_t>(target)] = 1.0;
            }
          }
          break;
        }
        case EventKind::kTransientIssue:
          switch (event.transient_kind) {
            case TransientKind::kServerFailure:
            case TransientKind::kMaintenance:
            case TransientKind::kRollingUpdate:
              throughput_factor_ *= 1.0 - event.magnitude;
              latency_factor_ *= 1.0 + event.magnitude;
              break;
            case TransientKind::kLoadSpike:
              throughput_factor_ *= 1.0 + event.magnitude;
              cpu_factor_ *= 1.0 + event.magnitude;
              latency_factor_ *= 1.0 + 0.5 * event.magnitude;
              break;
            case TransientKind::kCanaryTest:
            case TransientKind::kTrafficShift:
              if (target != kInvalidNode) {
                ApplyFactor(target, 1.0 + event.magnitude);
              }
              error_factor_ *= 1.0 + event.magnitude;
              break;
          }
          break;
        case EventKind::kSeasonalShift:
          seasonal_mix_amplitude_ *= 1.0 + event.magnitude;
          break;
      }
    }

    // Gradual ramp: apply the remaining fraction of the ramp seen this tick.
    if (event.kind == EventKind::kGradualRegression && event_started_[i] &&
        gradual_applied_[i] < 1.0 && target != kInvalidNode) {
      const Duration ramp = std::max<Duration>(event.ramp, config_.tick);
      const double progress =
          std::clamp(static_cast<double>(t - event.start) / static_cast<double>(ramp), 0.0, 1.0);
      if (progress > gradual_applied_[i]) {
        // Target cumulative factor at `progress` is (1+m)^progress.
        const double target_factor = std::pow(1.0 + event.magnitude, progress);
        const double current_factor = std::pow(1.0 + event.magnitude, gradual_applied_[i]);
        ApplyFactor(target, target_factor / current_factor);
        gradual_applied_[i] = progress;
      }
    }

    // End transition (transients revert their effects).
    if (event_started_[i] && !event_ended_[i] && event.duration > 0 &&
        t >= event.start + event.duration) {
      event_ended_[i] = true;
      if (event.kind == EventKind::kTransientIssue) {
        switch (event.transient_kind) {
          case TransientKind::kServerFailure:
          case TransientKind::kMaintenance:
          case TransientKind::kRollingUpdate:
            throughput_factor_ /= 1.0 - event.magnitude;
            latency_factor_ /= 1.0 + event.magnitude;
            break;
          case TransientKind::kLoadSpike:
            throughput_factor_ /= 1.0 + event.magnitude;
            cpu_factor_ /= 1.0 + event.magnitude;
            latency_factor_ /= 1.0 + 0.5 * event.magnitude;
            break;
          case TransientKind::kCanaryTest:
          case TransientKind::kTrafficShift:
            if (target != kInvalidNode) {
              ApplyFactor(target, 1.0 / (1.0 + event.magnitude));
            }
            error_factor_ /= 1.0 + event.magnitude;
            break;
        }
      }
    }
  }
}

double ServiceSimulator::LoadFactor(TimePoint t) const {
  if (config_.seasonal_load_amplitude <= 0.0 || config_.seasonal_period <= 0) {
    return 1.0;
  }
  const double phase =
      2.0 * M_PI * static_cast<double>(t % config_.seasonal_period) /
      static_cast<double>(config_.seasonal_period);
  return 1.0 + config_.seasonal_load_amplitude * std::sin(phase);
}

void ServiceSimulator::RefreshGraphCosts(TimePoint t) {
  const size_t n = graph_.node_count();
  for (size_t i = 0; i < n; ++i) {
    double cost = base_costs_[i] * event_factor_[i];
    if (seasonal_phase_[i] >= 0 && config_.seasonal_period > 0) {
      const double phase = 2.0 * M_PI *
                               (static_cast<double>(t % config_.seasonal_period) /
                                static_cast<double>(config_.seasonal_period)) +
                           static_cast<double>(seasonal_phase_[i]) * (M_PI / 4.0);
      cost *= 1.0 + seasonal_mix_amplitude_ * std::sin(phase);
      cost = std::max(cost, 0.0);
    }
    graph_.mutable_node(static_cast<NodeId>(i)).self_cost = cost;
  }
}

void ServiceSimulator::EmitGcpu(TimePoint t, WriteBatch& batch) {
  profiler_.WriteGcpuBucket(graph_, t, rng_, batch);
}

void ServiceSimulator::EmitProcessCpu(TimePoint t, WriteBatch& batch) {
  // Fleet-average CPU: weighted across generations; the average of m clipped
  // normals is approximated by Normal(mu, sigma^2/m) (Law of Large Numbers,
  // Appendix A.1).
  const double load = LoadFactor(t);
  // Subroutine-level regressions raise total CPU proportionally to the total
  // graph cost change.
  const double graph_ratio =
      baseline_total_cost_ > 0.0 ? graph_.TotalCost() / baseline_total_cost_ : 1.0;
  double average = 0.0;
  for (const ServerGeneration& generation : config_.generations) {
    const double servers =
        std::max(1.0, generation.fraction * static_cast<double>(config_.num_servers));
    const double mean = generation.cpu_mean * load * cpu_factor_ * graph_ratio;
    const double sd = std::sqrt(generation.cpu_variance / servers);
    average += generation.fraction * std::clamp(rng_.Normal(mean, sd), 0.0, 1.0);
  }
  batch.Add(handles_.process_cpu, t, average);
}

void ServiceSimulator::EmitEndpointMetrics(TimePoint t, WriteBatch& batch) {
  const double load = LoadFactor(t);
  const double total_throughput = config_.base_throughput_per_server *
                                  static_cast<double>(config_.num_servers) * load *
                                  throughput_factor_;
  batch.Add(handles_.service_throughput, t,
            std::max(0.0, rng_.Normal(total_throughput,
                                      total_throughput * config_.throughput_noise)));

  for (size_t e = 0; e < endpoint_weights_.size(); ++e) {
    const double tp = total_throughput * endpoint_weights_[e];
    batch.Add(handles_.endpoint_throughput[e], t,
              std::max(0.0, rng_.Normal(tp, tp * config_.throughput_noise)));

    const double latency = config_.base_latency_ms * latency_factor_ *
                           (1.0 + 0.2 * (load - 1.0));
    batch.Add(handles_.endpoint_latency[e], t,
              std::max(0.0, rng_.Normal(latency, latency * config_.latency_noise)));

    const double errors = config_.base_error_rate * error_factor_;
    batch.Add(handles_.endpoint_error[e], t,
              std::max(0.0, rng_.Normal(errors, errors * config_.error_rate_noise)));
  }
}

void ServiceSimulator::EmitCtMetrics(TimePoint t, WriteBatch& batch) {
  // CT-supply: per-server maximum throughput from periodic load tests. It is
  // inversely proportional to per-request CPU cost.
  const double graph_ratio =
      baseline_total_cost_ > 0.0 ? graph_.TotalCost() / baseline_total_cost_ : 1.0;
  const double max_tp =
      config_.base_throughput_per_server * 1.5 / (cpu_factor_ * graph_ratio);
  batch.Add(handles_.ct_supply, t, std::max(0.0, rng_.Normal(max_tp, max_tp * 0.03)));

  // CT-demand: total peak requests across all servers.
  const double demand = config_.base_throughput_per_server *
                        static_cast<double>(config_.num_servers) * LoadFactor(t) *
                        throughput_factor_;
  batch.Add(handles_.ct_demand, t, std::max(0.0, rng_.Normal(demand, demand * 0.03)));
}

void ServiceSimulator::Tick(TimePoint t, WriteBatch& batch) {
  FBD_CHECK(t > last_tick_);
  EnsureHandles(*batch.db());
  ApplyEventTransitions(t);
  RefreshGraphCosts(t);
  if (config_.emit_gcpu) {
    EmitGcpu(t, batch);
  }
  if (config_.emit_process_cpu) {
    EmitProcessCpu(t, batch);
  }
  if (config_.emit_endpoint_metrics) {
    EmitEndpointMetrics(t, batch);
  }
  if (config_.emit_ct_metrics) {
    EmitCtMetrics(t, batch);
  }
  last_tick_ = t;
}

}  // namespace fbdetect
