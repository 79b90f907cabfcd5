// Benchmark inputs, generated from the workload seed before any timing
// starts. The fleet layer (GenerateScenario + ServiceSimulator) produces the
// telemetry; the benchmark only encodes it into the binary wire format the
// service's /ingest endpoint accepts. The system under test sees nothing but
// these bodies and the /run schedule.
#ifndef PERFBENCH_HARNESS_INPUTS_H_
#define PERFBENCH_HARNESS_INPUTS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/sim_time.h"
#include "src/fleet/events.h"

namespace perfbench {

using fbdetect::Duration;
using fbdetect::TimePoint;

// An append-only, already-unlinked file that holds encoded bodies until they
// are sent, so the inputs stay out of the process's resident memory and
// peak_rss_mb measures the service rather than the benchmark. Reads are
// thread-safe.
class Spool {
 public:
  explicit Spool(const std::string& directory);
  ~Spool();
  Spool(const Spool&) = delete;
  Spool& operator=(const Spool&) = delete;

  uint64_t Append(std::string_view bytes);
  void Read(uint64_t offset, uint32_t size, std::string& out) const;

 private:
  int fd_ = -1;
  uint64_t size_ = 0;
};

// One encoded binary /ingest body, kept in a spool. Pooled bodies also keep
// the byte offset of every timestamp, so they can be re-sent with their
// timestamps advanced.
struct WireBody {
  uint32_t points = 0;
  TimePoint first_tick = 0;
  TimePoint last_tick = 0;  // The newest tick carried: the body's causing tick.
  const Spool* spool = nullptr;
  uint64_t offset = 0;
  uint32_t size = 0;
  std::vector<uint32_t> timestamp_offsets;  // Pooled bodies only.
};

// Reads `body` into `out` with every timestamp advanced by `shift` seconds
// (pooled bodies only; `out` keeps its capacity across calls).
void LoadBody(const WireBody& body, int64_t shift, std::string& out);

struct ScannedFleetOptions {
  int services = 4;
  int subroutines = 33;  // About 56 series per service.
  Duration duration = fbdetect::Days(16);
  // Ticks strictly before `split` are packed `preload_ticks_per_body` to a
  // body (the history preload); later ticks go one tick per body (live
  // forwarding). A split at or past the end packs everything.
  TimePoint split = 0;
  int preload_ticks_per_body = 6;
  // Last tick encoded; 0 = the scenario's end. Events are placed over the
  // whole `duration` either way.
  TimePoint stop = 0;
};

// The scanned services: labelled GenerateScenario fleets (step and gradual
// regressions, cost shifts, transients, seasonal shifts).
struct ScannedFleet {
  std::vector<std::string> services;
  std::vector<size_t> series_per_service;
  std::vector<fbdetect::InjectedEvent> events;  // Ground truth, every kind.
  std::vector<WireBody> bodies;                 // Spooled, time order, every service.
  TimePoint begin = 0;
  TimePoint end = 0;
  Duration tick = 0;
};

ScannedFleet MakeScannedFleet(uint64_t seed, const ScannedFleetOptions& options, Spool& spool);

// Forwarder traffic: `groups` groups of services with one point per series
// per tick. Ticks [0, preload_ticks) are spooled `preload_ticks_per_body` to
// a body in preload[g]; the next `pool_ticks` ticks are pooled one tick per
// body in pool[g], and global tick k >= preload_ticks re-sends pool tick
// (k - preload_ticks) % pool_ticks with its timestamps shifted by whole
// passes over the pool.
struct IngestFleetOptions {
  int groups = 4;
  int services_per_group = 16;  // 16 x 56 series: 896 points per tick.
  int subroutines = 33;
  TimePoint start = 0;          // Tick k is at start + (k + 1) * tick.
  int64_t preload_ticks = 0;
  int preload_ticks_per_body = 6;
  int pool_ticks = 12;
};

struct IngestFleet {
  int groups = 0;
  int64_t preload_ticks = 0;
  int pool_ticks = 0;
  Duration tick = 0;
  TimePoint start = 0;
  std::vector<std::vector<WireBody>> preload;
  std::vector<std::vector<WireBody>> pool;

  TimePoint TickTime(int64_t index) const { return start + (index + 1) * tick; }
  int64_t Shift(int64_t index) const {
    return ((index - preload_ticks) / pool_ticks) * pool_ticks * tick;
  }
  const WireBody& Body(int group, int64_t index) const {
    return pool[static_cast<size_t>(group)][static_cast<size_t>((index - preload_ticks) % pool_ticks)];
  }
};

IngestFleet MakeIngestFleet(uint64_t seed, const IngestFleetOptions& options, Spool& spool);

// FNV-1a digest of generated inputs, to prove a seed reproduces them.
class InputDigest {
 public:
  void Add(const ScannedFleet& fleet);
  void Add(const IngestFleet& fleet);
  std::string Hex() const;

 private:
  void Add(const WireBody& body);
  void Bytes(const void* data, size_t size);
  uint64_t state_ = 0xcbf29ce484222325ull;
  std::string scratch_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_INPUTS_H_
