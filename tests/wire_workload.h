// WireWorkload: a fleet-simulator load generator for the service tests.
//
// It drives a ServiceSimulator tick by tick, stages each tick into a
// WriteBatch against a private scratch database (so interning and column
// layout match the real ingest path), optionally corrupts the staged columns
// through the FaultInjector (duplicated, reordered and garbage points, as
// retransmitted fleet telemetry carries), and exports the staged columns as
// an encoded wire body.
#ifndef FBDETECT_TESTS_WIRE_WORKLOAD_H_
#define FBDETECT_TESTS_WIRE_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/fleet/fault_injector.h"
#include "src/fleet/service.h"
#include "src/service/wire.h"
#include "src/tsdb/database.h"

namespace fbdetect {

struct WireWorkloadOptions {
  ServiceConfig service;
  // When set, staged columns pass through FaultInjector::Corrupt (default
  // FaultInjectorConfig) before export.
  bool inject_faults = false;
  TimePoint start = 0;
};

class WireWorkload {
 public:
  explicit WireWorkload(const WireWorkloadOptions& options)
      : scratch_db_(ScratchOptions()),
        simulator_(options.service),
        batch_(&scratch_db_),
        next_tick_(options.start) {
    if (options.inject_faults) {
      injector_ = std::make_unique<FaultInjector>(FaultInjectorConfig{});
    }
  }

  // Advances one simulator tick and returns the encoded binary request body
  // for it. `points` (optional) receives the batch's point count.
  std::string NextBody(uint32_t* points = nullptr) {
    simulator_.Tick(next_tick_, batch_);
    next_tick_ += simulator_.config().tick;
    if (injector_ != nullptr) {
      injector_->Corrupt(batch_);
    }
    WireBatch wire;
    // Export the staged columns and clear them in place: the scratch
    // database never sees a Commit, so it stays a pure interning/layout donor.
    batch_.MutateColumns([&](const InternedMetricId& id, std::vector<TimePoint>& timestamps,
                             std::vector<double>& values) {
      if (!timestamps.empty()) {
        WireSeries series;
        series.id = scratch_db_.Resolve(id);
        series.timestamps = timestamps;
        series.values = values;
        wire.total_points += timestamps.size();
        wire.series.push_back(std::move(series));
      }
      timestamps.clear();
      values.clear();
    });
    if (points != nullptr) {
      *points = static_cast<uint32_t>(wire.total_points);
    }
    std::string body;
    EncodeWireBatch(wire, body);
    return body;
  }

  // Schedules a simulator event (regression, cost shift, ...) so the wire
  // stream carries a detectable anomaly.
  void ScheduleEvent(const InjectedEvent& event) { simulator_.ScheduleEvent(event); }

  TimePoint next_tick() const { return next_tick_; }

 private:
  // Scratch database tuned for staging only: the workload never scans it.
  static TsdbOptions ScratchOptions() {
    TsdbOptions options;
    options.shard_count = 4;
    return options;
  }

  TimeSeriesDatabase scratch_db_;
  ServiceSimulator simulator_;
  WriteBatch batch_;
  std::unique_ptr<FaultInjector> injector_;
  TimePoint next_tick_;
};

}  // namespace fbdetect

#endif  // FBDETECT_TESTS_WIRE_WORKLOAD_H_
