// The fleet simulator: a set of services, a shared clock, a shared
// TimeSeriesDatabase, a ChangeLog, and the ground-truth event registry.
// Substitutes for Meta's production fleet (DESIGN.md §4).
#ifndef FBDETECT_SRC_FLEET_FLEET_H_
#define FBDETECT_SRC_FLEET_FLEET_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/sim_time.h"
#include "src/fleet/change_log.h"
#include "src/fleet/events.h"
#include "src/fleet/fault_injector.h"
#include "src/fleet/service.h"
#include "src/tsdb/database.h"

namespace fbdetect {

// Controls one Run() ingestion pass.
struct FleetIngestOptions {
  // Worker threads ticking services in parallel. Services are independent
  // RNG streams writing disjoint series, so results are byte-identical for
  // any thread count.
  int threads = 1;
  // Each worker commits its WriteBatch once it has staged this many points
  // (and at the end of its service's schedule).
  size_t flush_points = 4096;
  // When non-null, every staged batch is corrupted (FaultInjector::Corrupt)
  // immediately before commit — the chaos-testing path. Fault decisions are
  // pure hashes of (seed, series, timestamp), so the injected database
  // content stays byte-identical for any threads/flush_points combination.
  // Must outlive the Run() call; not owned.
  FaultInjector* fault_injector = nullptr;
};

class FleetSimulator {
 public:
  FleetSimulator() = default;
  FleetSimulator(const FleetSimulator&) = delete;
  FleetSimulator& operator=(const FleetSimulator&) = delete;

  // Adds a service; returns a stable pointer owned by the fleet.
  ServiceSimulator* AddService(const ServiceConfig& config);

  ServiceSimulator* FindService(const std::string& name);

  // Schedules an event on its service and registers it as ground truth.
  // When `commit` is non-null, the commit is added to the change log and the
  // event is linked to it. Returns the event id.
  int64_t InjectEvent(InjectedEvent event, Commit* commit = nullptr);

  // Runs all services from `begin` (exclusive of begin itself: the first tick
  // fires at begin + tick) through `end` inclusive, writing into db().
  void Run(TimePoint begin, TimePoint end) { Run(begin, end, FleetIngestOptions{}); }

  // As above, with batched ingestion across `options.threads` workers (one
  // task per service). Database content is identical for any thread count.
  void Run(TimePoint begin, TimePoint end, const FleetIngestOptions& options);

  TimeSeriesDatabase& db() { return db_; }
  const TimeSeriesDatabase& db() const { return db_; }
  ChangeLog& change_log() { return change_log_; }
  const ChangeLog& change_log() const { return change_log_; }
  const std::vector<InjectedEvent>& ground_truth() const { return ground_truth_; }
  const std::vector<std::unique_ptr<ServiceSimulator>>& services() const { return services_; }

 private:
  std::vector<std::unique_ptr<ServiceSimulator>> services_;
  TimeSeriesDatabase db_;
  ChangeLog change_log_;
  std::vector<InjectedEvent> ground_truth_;
  int64_t next_event_id_ = 0;
};

}  // namespace fbdetect

#endif  // FBDETECT_SRC_FLEET_FLEET_H_
