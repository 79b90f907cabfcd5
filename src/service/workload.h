// Load generator for the service endpoint (bench_service and the service
// tests).
//
// SyntheticWorkload is the throughput instrument: a fixed series population
// whose encoded body is built once and then timestamp/value-patched in
// place per batch — generation costs one 16-byte write per point, so the
// bench measures the server, not the client.
#ifndef FBDETECT_SRC_SERVICE_WORKLOAD_H_
#define FBDETECT_SRC_SERVICE_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/sim_time.h"

namespace fbdetect {

class SyntheticWorkload {
 public:
  // `series_count` distinct application series under `service`, each
  // contributing `points_per_series` points per batch, starting at `start`
  // with `step` seconds between consecutive points of a series.
  SyntheticWorkload(const std::string& service, int series_count,
                    int points_per_series, TimePoint start, Duration step);

  // Overwrites `body` with the next batch. Returns the batch's point count.
  uint32_t NextBody(std::string& body);

  uint32_t points_per_batch() const { return points_per_batch_; }

 private:
  struct SeriesSlot {
    size_t offset;  // Byte offset of the series' first point in template_.
    uint32_t count;
  };

  std::string template_;
  std::vector<SeriesSlot> slots_;
  uint32_t points_per_batch_ = 0;
  TimePoint next_start_;
  Duration step_;
  uint64_t batch_index_ = 0;
};

}  // namespace fbdetect

#endif  // FBDETECT_SRC_SERVICE_WORKLOAD_H_
