#include "harness/workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <malloc.h>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "harness/inputs.h"
#include "harness/json.h"
#include "harness/replay.h"
#include "harness/service.h"
#include "src/core/workload_config.h"
#include "src/stats/descriptive.h"

namespace perfbench {
namespace {

using fbdetect::Days;

// --- Sizing -----------------------------------------------------------------

struct Sizing {
  int scanned_services;
  int scanned_subroutines;   // About 56 series per service at 33.
  int fleet_groups;          // Forwarder fleet groups (`ingest`, `live`).
  int services_per_group;    // 16 x 56 series: 896 points per tick.
  int fleet_subroutines;
  int pool_ticks;            // Distinct ticks per group before timestamps shift.
  int64_t fleet_preload_ticks;  // `ingest` set-up: one simulated day of the fleet.
  double detect_points_per_second;  // `detect` re-run points per --seconds.
  double ingest_ticks_per_second;   // `ingest` fleet ticks per --seconds.
  double live_offered_points_per_s; // `live` fleet rate, about a quarter of `ingest`'s.
  double live_run_spacing_ms;       // `live` gap between consecutive /run due times.
};

Sizing SizingFor(bool tiny) {
  if (tiny) {
    return Sizing{2, 12, 1, 4, 12, 6, 24, 2.0, 20.0, 20000.0, 60.0};
  }
  return Sizing{12, 33, 4, 16, 33, 12, 144, 0.6, 150.0, 110000.0, 330.0};
}

constexpr int kDetectScanThreads = 1;
constexpr int kLiveScanThreads = 2;
constexpr int kIngestScanThreads = 1;
constexpr int kForwarders = 2;

const fbdetect::DetectionConfig& Detection() {
  static const fbdetect::DetectionConfig config = fbdetect::FrontFaaSSmallConfig();
  return config;
}

// The first as_of with a full historical + analysis + extended window.
TimePoint FirstFullWindow() { return Detection().windows.Total(); }

// `detect` scenarios span 16 days, so GenerateScenario (which places events
// over the first 90%) injects regressions around a re-run schedule that
// starts on day 11, after a full window of history.
constexpr Duration kDetectScenarioDays = 16;
constexpr TimePoint kDetectFirstAsOf = fbdetect::Days(11);

// --- Small statistics -------------------------------------------------------

// Nearest-rank percentile: with n samples, p90 leaves n/10 samples beyond it.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

// --- A pass: one hosted service from set-up to drain -------------------------

std::vector<Span> Flatten(std::vector<std::vector<Span>>& per_thread) {
  std::vector<Span> spans;
  for (std::vector<Span>& part : per_thread) {
    std::move(part.begin(), part.end(), std::back_inserter(spans));
  }
  return spans;
}

// The client threads of one timed phase. An exception on any of them is
// kept and marks the crew failed, so the others stop waiting on it; Join()
// rethrows it once every thread has ended.
class Crew {
 public:
  Crew() = default;
  ~Crew() { JoinAll(); }
  Crew(const Crew&) = delete;
  Crew& operator=(const Crew&) = delete;

  template <typename Fn>
  void Spawn(Fn fn) {
    threads_.emplace_back([this, fn]() mutable {
      try {
        fn();
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (error_.empty()) {
          error_ = e.what();
        }
        failed_.store(true);
      }
    });
  }
  bool failed() const { return failed_.load(); }
  void Join() {
    JoinAll();
    if (failed()) {
      throw std::runtime_error(error_);
    }
  }

 private:
  void JoinAll() {
    for (std::thread& thread : threads_) {
      if (thread.joinable()) {
        thread.join();
      }
    }
  }

  std::mutex mutex_;
  std::string error_;  // Guarded by mutex_.
  std::atomic<bool> failed_{false};
  std::vector<std::thread> threads_;
};

// Set-ups per measured run; setup_s is their median.
constexpr int kSetups = 5;

// Generated once per run: every set-up and both passes send the same bodies.
struct Inputs {
  std::unique_ptr<Spool> spool;  // Declared first: outlives the bodies in it.
  ScannedFleet scanned;
  IngestFleet fleet;
  std::string digest;
  double generate_s = 0.0;
};

struct Pass {
  std::vector<Span> spans;  // Send (start) order, set-up included.
  std::vector<double> setup_s;
  uint64_t timed_begin_ns = 0;
  uint64_t timed_end_ns = 0;
  std::string stats_before, stats_after;
  std::string telemetry_before, telemetry_after;
  bool drained = false;
  double late_ms_max = 0.0;
  int scan_threads = 1;
};

class Runner {
 public:
  explicit Runner(const Options& options)
      : options_(options), sizing_(SizingFor(options.tiny)) {}

  Inputs Generate() const;
  Pass RunPass(bool traced, int setups, const Inputs& inputs) const;

 private:
  // Set-up steps on a fresh service.
  void Preload(Connection& conn, const ScannedFleet& scanned, TimePoint before,
               std::vector<Span>& spans) const;
  void PreloadFleet(Connection& conn, const IngestFleet& fleet, std::vector<Span>& spans) const;
  void WarmUp(Connection& conn, const Inputs& inputs, std::vector<Span>& spans) const;
  // Timed phases; return every span they sent.
  std::vector<Span> TimedDetect(uint16_t port, const Inputs& inputs) const;
  std::vector<Span> TimedIngest(uint16_t port, const Inputs& inputs) const;
  std::vector<Span> TimedLive(uint16_t port, const Inputs& inputs, double* late_ms) const;

  // `detect` and `ingest` do a fixed amount of work sized from --seconds,
  // so what they compute (reports, the database's final contents) depends
  // only on seed and --seconds.
  IngestFleetOptions FleetOptions(TimePoint start, int64_t preload_ticks) const {
    IngestFleetOptions fleet;
    fleet.groups = sizing_.fleet_groups;
    fleet.services_per_group = sizing_.services_per_group;
    fleet.subroutines = sizing_.fleet_subroutines;
    fleet.start = start;
    fleet.preload_ticks = preload_ticks;
    fleet.pool_ticks = sizing_.pool_ticks;
    return fleet;
  }
  int64_t IngestTicks() const {
    return std::max<int64_t>(2, std::llround(sizing_.ingest_ticks_per_second * options_.seconds));
  }
  int DetectPoints() const {
    return std::max(2, static_cast<int>(std::lround(sizing_.detect_points_per_second *
                                                    options_.seconds)));
  }
  // `live`: a re-run point every TicksPerRerun() scanned ticks, and one
  // /run per scanned service every LiveRunSpacingNs(), so the scans are
  // due back to back at a fixed share of wall time.
  uint64_t LiveRunSpacingNs() const {
    return static_cast<uint64_t>(sizing_.live_run_spacing_ms * 1e6);
  }
  uint64_t LiveScannedTickNs() const {
    return LiveRunSpacingNs() * static_cast<uint64_t>(sizing_.scanned_services) /
           static_cast<uint64_t>(TicksPerRerun());
  }
  int64_t LiveScannedTicks() const {
    return static_cast<int64_t>(options_.seconds * 1e9 / static_cast<double>(LiveScannedTickNs())) + 1;
  }
  static int64_t TicksPerRerun() { return Detection().rerun_interval / fbdetect::Minutes(10); }
  int ScanThreads() const {
    if (options_.workload == "detect") {
      return kDetectScanThreads;
    }
    return options_.workload == "live" ? kLiveScanThreads : kIngestScanThreads;
  }

  const Options& options_;
  Sizing sizing_;
};

Inputs Runner::Generate() const {
  const uint64_t begin = NowNs();
  Inputs inputs;
  inputs.spool = std::make_unique<Spool>(options_.scratch);
  Spool& spool = *inputs.spool;
  ScannedFleetOptions scanned;
  scanned.services = sizing_.scanned_services;
  scanned.subroutines = sizing_.scanned_subroutines;
  const Duration rerun = Detection().rerun_interval;
  if (options_.workload == "detect") {
    // Warm-up one re-run before kDetectFirstAsOf, then DetectPoints()
    // re-run points; the data before the last as_of is preloaded.
    scanned.duration = Days(kDetectScenarioDays);
    scanned.stop = kDetectFirstAsOf + (DetectPoints() - 1) * rerun;
    scanned.split = scanned.stop + 1;
    inputs.scanned = MakeScannedFleet(options_.seed, scanned, spool);
  } else if (options_.workload == "live") {
    scanned.duration = FirstFullWindow() + (LiveScannedTicks() + 1) * fbdetect::Minutes(10);
    scanned.split = FirstFullWindow();
    inputs.scanned = MakeScannedFleet(options_.seed, scanned, spool);
    inputs.fleet = MakeIngestFleet(options_.seed, FleetOptions(FirstFullWindow(), 0), spool);
  } else {
    inputs.fleet =
        MakeIngestFleet(options_.seed, FleetOptions(0, sizing_.fleet_preload_ticks), spool);
  }
  InputDigest digest;
  digest.Add(inputs.scanned);
  digest.Add(inputs.fleet);
  inputs.digest = digest.Hex();
  inputs.generate_s = static_cast<double>(NowNs() - begin) / 1e9;
  return inputs;
}

void Runner::Preload(Connection& conn, const ScannedFleet& scanned, TimePoint before,
                     std::vector<Span>& spans) const {
  std::string scratch;
  TimePoint next_seal = scanned.begin + Days(1);
  for (const WireBody& body : scanned.bodies) {
    if (body.first_tick >= before) {
      break;
    }
    spans.push_back(conn.Ingest(body, 0, scratch));
    // Checkpoint each simulated day once every tick before it is acked.
    while (body.last_tick + scanned.tick >= next_seal) {
      spans.push_back(conn.Seal(next_seal));
      next_seal += Days(1);
    }
  }
}

void Runner::PreloadFleet(Connection& conn, const IngestFleet& fleet,
                          std::vector<Span>& spans) const {
  std::string scratch;
  for (size_t j = 0; j < fleet.preload.front().size(); ++j) {
    for (const std::vector<WireBody>& group : fleet.preload) {
      spans.push_back(conn.Ingest(group[j], 0, scratch));
    }
  }
  spans.push_back(conn.Seal(fleet.start + fleet.preload_ticks * fleet.tick));
}

void Runner::WarmUp(Connection& conn, const Inputs& inputs, std::vector<Span>& spans) const {
  if (!inputs.scanned.services.empty()) {
    const TimePoint as_of = options_.workload == "detect"
                                ? kDetectFirstAsOf - Detection().rerun_interval
                                : FirstFullWindow();
    for (const std::string& service : inputs.scanned.services) {
      spans.push_back(conn.Run(service, as_of));
    }
    return;
  }
  // The forwarder fleet holds a day of history, short of the 10-day
  // window: its warm-up exercises the control path and the list cache.
  for (int g = 0; g < inputs.fleet.groups; ++g) {
    for (int s = 0; s < sizing_.services_per_group; ++s) {
      char name[32];
      std::snprintf(name, sizeof(name), "fleet_%02d_%02d", g, s);
      spans.push_back(conn.Run(name, inputs.fleet.TickTime(inputs.fleet.preload_ticks)));
    }
  }
}

std::vector<Span> Runner::TimedDetect(uint16_t port, const Inputs& inputs) const {
  std::vector<Span> spans;
  Connection conn(port, 0);
  for (int r = 0; r < DetectPoints(); ++r) {
    const TimePoint as_of = kDetectFirstAsOf + r * Detection().rerun_interval;
    for (const std::string& service : inputs.scanned.services) {
      spans.push_back(conn.Run(service, as_of));
    }
  }
  return spans;
}

std::vector<Span> Runner::TimedIngest(uint16_t port, const Inputs& inputs) const {
  const IngestFleet& fleet = inputs.fleet;
  const int64_t end_tick = fleet.preload_ticks + IngestTicks();
  std::atomic<int64_t> acked[kForwarders];
  std::atomic<int> sending{kForwarders};
  std::vector<std::vector<Span>> per_thread(kForwarders + 1);
  Crew crew;
  for (int f = 0; f < kForwarders; ++f) {
    acked[f].store(-1);
    crew.Spawn([&, f] {
      Connection conn(port, f);
      std::string scratch;
      std::vector<Span>& spans = per_thread[static_cast<size_t>(f)];
      for (int64_t k = fleet.preload_ticks; k < end_tick; ++k) {
        for (int g = f; g < fleet.groups; g += kForwarders) {
          spans.push_back(conn.Ingest(fleet.Body(g, k), fleet.Shift(k), scratch));
        }
        acked[f].store(k);
      }
      sending.fetch_sub(1);
    });
  }
  // Checkpointer: a /seal at each simulated day once both forwarders acked
  // every tick before it.
  crew.Spawn([&] {
    Connection conn(port, kForwarders);
    // The preload sealed its own ticks; then one seal per simulated day.
    TimePoint next_seal = fleet.start + fleet.preload_ticks * fleet.tick + Days(1);
    while (sending.load() > 0 && !crew.failed()) {
      const int64_t k = std::min(acked[0].load(), acked[1].load());
      if (k >= 0 && fleet.TickTime(k) >= next_seal) {
        per_thread[kForwarders].push_back(conn.Seal(next_seal));
        next_seal += Days(1);
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  });
  crew.Join();
  return Flatten(per_thread);
}

std::vector<Span> Runner::TimedLive(uint16_t port, const Inputs& inputs,
                                    double* late_ms) const {
  const ScannedFleet& scanned = inputs.scanned;
  const IngestFleet& fleet = inputs.fleet;
  size_t first_live = 0;
  while (first_live < scanned.bodies.size() &&
         scanned.bodies[first_live].first_tick < FirstFullWindow()) {
    ++first_live;
  }
  const int64_t scanned_ticks = LiveScannedTicks();
  if (first_live + static_cast<size_t>(scanned_ticks) > scanned.bodies.size()) {
    throw std::runtime_error("live: scanned fleet shorter than the tick schedule");
  }
  // Each forwarder's open-loop schedule, fixed before the phase starts:
  // the fleet groups are dealt round-robin and spaced evenly at the offered
  // rate; forwarder 0 also carries one scanned-services tick per
  // LiveScannedTickNs().
  struct Due {
    uint64_t offset_ns;
    const WireBody* body;
    int64_t shift;
    int64_t scanned_tick;  // -1 for fleet bodies.
  };
  const uint64_t phase_ns = static_cast<uint64_t>(options_.seconds * 1e9);
  const double body_points = static_cast<double>(fleet.pool[0][0].points);
  const uint64_t body_ns =
      static_cast<uint64_t>(1e9 * body_points / sizing_.live_offered_points_per_s);
  std::vector<std::vector<Due>> schedule(kForwarders);
  for (int64_t n = 0; static_cast<uint64_t>(n) * body_ns < phase_ns; ++n) {
    const int group = static_cast<int>(n % fleet.groups);
    const int64_t tick = n / fleet.groups;
    schedule[static_cast<size_t>(n % kForwarders)].push_back(
        {static_cast<uint64_t>(n) * body_ns, &fleet.Body(group, tick), fleet.Shift(tick), -1});
  }
  for (int64_t k = 0; k < scanned_ticks; ++k) {
    schedule[0].push_back({static_cast<uint64_t>(k) * LiveScannedTickNs(),
                           &scanned.bodies[first_live + static_cast<size_t>(k)], 0, k});
  }
  std::stable_sort(schedule[0].begin(), schedule[0].end(),
                   [](const Due& a, const Due& b) { return a.offset_ns < b.offset_ns; });

  std::atomic<int64_t> scanned_acked{-1};
  std::vector<std::vector<Span>> per_thread(kForwarders + 1);
  std::vector<double> late(kForwarders, 0.0);
  const uint64_t t0 = NowNs() + 20'000'000;  // Every thread connects first.
  Crew crew;
  for (int f = 0; f < kForwarders; ++f) {
    crew.Spawn([&, f] {
      Connection conn(port, f);
      std::string scratch;
      for (const Due& item : schedule[static_cast<size_t>(f)]) {
        const uint64_t due = t0 + item.offset_ns;
        const uint64_t now = NowNs();
        if (now < due) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        }
        Span span = conn.Ingest(*item.body, item.shift, scratch, due);
        late[static_cast<size_t>(f)] = std::max(late[static_cast<size_t>(f)],
                                                static_cast<double>(span.start_ns - due) / 1e6);
        per_thread[static_cast<size_t>(f)].push_back(std::move(span));
        if (item.scanned_tick >= 0) {
          scanned_acked.store(item.scanned_tick);
        }
      }
    });
  }
  // Scheduler: at each re-run point one /run per scanned service, spaced
  // LiveRunSpacingNs() apart; each waits until the data before its as_of
  // is acked, as a scheduler behind the forwarders would.
  crew.Spawn([&] {
    Connection conn(port, kForwarders);
    const int64_t per_rerun = TicksPerRerun();
    const uint64_t spacing_ns = LiveRunSpacingNs();
    for (int64_t j = 1;; ++j) {
      const TimePoint as_of = FirstFullWindow() + j * Detection().rerun_interval;
      const uint64_t point_ns = static_cast<uint64_t>(j * per_rerun) * LiveScannedTickNs();
      if (point_ns >= phase_ns) {
        break;
      }
      for (size_t s = 0; s < scanned.services.size(); ++s) {
        const uint64_t due = t0 + point_ns + s * spacing_ns;
        if (due >= t0 + phase_ns) {
          break;  // Only scans that contend with the offered ingest count.
        }
        while (NowNs() < due || scanned_acked.load() < j * per_rerun - 1) {
          if (crew.failed()) {
            return;
          }
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        per_thread[kForwarders].push_back(conn.Run(scanned.services[s], as_of, due));
      }
    }
  });
  crew.Join();
  *late_ms = *std::max_element(late.begin(), late.end());
  return Flatten(per_thread);
}

Pass Runner::RunPass(bool traced, int setups, const Inputs& inputs) const {
  Pass pass;
  pass.scan_threads = ScanThreads();
  std::unique_ptr<HostedService> service;
  // Set-up is repeated so setup_s is a median; the last one is measured.
  for (int i = 0; i < setups; ++i) {
    if (service != nullptr) {
      service->Drain();
      service.reset();
    }
    pass.spans.clear();
    // peak_rss_mb covers one set-up and what follows it: hand memory freed
    // before it back to the kernel and restart the high-water mark (Linux:
    // "5" resets VmHWM; if the write fails, what came before counts too).
    ::malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
    const uint64_t begin = NowNs();
    service = std::make_unique<HostedService>(options_.scratch, pass.scan_threads, traced);
    Connection conn(service->port(), 0);
    if (!inputs.scanned.bodies.empty()) {
      const TimePoint before = options_.workload == "live" ? FirstFullWindow()
                                                           : inputs.scanned.end + 1;
      Preload(conn, inputs.scanned, before, pass.spans);
    } else {
      PreloadFleet(conn, inputs.fleet, pass.spans);
    }
    const uint64_t preloaded = NowNs();
    WarmUp(conn, inputs, pass.spans);
    const uint64_t end = NowNs();
    pass.setup_s.push_back(static_cast<double>(end - begin) / 1e9);
    std::fprintf(stderr, "set-up %d: start + preload %.3f s, warm-up %.3f s\n", i + 1,
                 static_cast<double>(preloaded - begin) / 1e9,
                 static_cast<double>(end - preloaded) / 1e9);
  }

  Connection observer(service->port(), 99);
  pass.stats_before = observer.Get("/stats");
  if (traced) {
    pass.telemetry_before = observer.Get("/telemetry");
  }
  pass.timed_begin_ns = NowNs();
  std::vector<Span> timed;
  if (options_.workload == "detect") {
    timed = TimedDetect(service->port(), inputs);
  } else if (options_.workload == "ingest") {
    timed = TimedIngest(service->port(), inputs);
  } else {
    timed = TimedLive(service->port(), inputs, &pass.late_ms_max);
  }
  pass.timed_end_ns = NowNs();
  for (Span& span : timed) {
    span.timed = true;
    pass.spans.push_back(std::move(span));
  }
  std::stable_sort(pass.spans.begin(), pass.spans.end(),
                   [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; });
  pass.stats_after = observer.Get("/stats");
  if (traced) {
    pass.telemetry_after = observer.Get("/telemetry");
  }
  pass.drained = service->Drain();
  return pass;
}

// --- Output checks ----------------------------------------------------------

// Every non-empty line is a JSON object naming a metric and a detected_at.
bool ValidNdjson(const std::string& body) {
  if (!body.empty() && body.back() != '\n') {
    return false;
  }
  std::istringstream lines(body);
  std::string line;
  while (std::getline(lines, line)) {
    if (!IsJsonObject(line) || !JsonString(line, "metric") || !JsonNumber(line, "detected_at")) {
      return false;
    }
  }
  return true;
}

void CheckPass(const Pass& pass, std::vector<std::string>& failures) {
  uint64_t sent_points = 0;
  uint64_t acked_points = 0;
  size_t bad_ingest = 0, bad_runs = 0, bad_seals = 0;
  for (const Span& span : pass.spans) {
    switch (span.kind) {
      case Span::Kind::kIngest:
        sent_points += span.points;
        acked_points += span.acked_points;
        if (span.status != 200 || span.acked_points != span.points) {
          ++bad_ingest;
        }
        break;
      case Span::Kind::kRun:
        if (span.status != 200 || !ValidNdjson(span.response)) {
          ++bad_runs;
        }
        break;
      case Span::Kind::kSeal:
        if (span.status != 200) {
          ++bad_seals;
        }
        break;
    }
  }
  const auto fail = [&failures](const std::string& what) { failures.push_back(what); };
  if (bad_ingest > 0) {
    fail(std::to_string(bad_ingest) + " ingest requests not acked in full with 200");
  }
  if (acked_points != sent_points) {
    fail("acked points " + std::to_string(acked_points) + " != sent " +
         std::to_string(sent_points));
  }
  if (bad_runs > 0) {
    fail(std::to_string(bad_runs) + " /run requests without 200 and parseable NDJSON");
  }
  if (bad_seals > 0) {
    fail(std::to_string(bad_seals) + " /seal requests without 200");
  }
  const std::string& stats = pass.stats_after;
  const auto stat = [&stats](const char* name) { return JsonNumber(stats, name); };
  if (!IsJsonObject(stats) || !stat("offered_requests") || !stat("admitted_requests") ||
      !stat("shed_admission") || !stat("shed_backpressure") || !stat("shed_drain") ||
      !stat("malformed") || !stat("acked_points")) {
    fail("GET /stats did not return the expected JSON");
  } else {
    const double shed = *stat("shed_admission") + *stat("shed_backpressure") + *stat("shed_drain");
    if (*stat("offered_requests") != *stat("admitted_requests") + shed) {
      fail("/stats: offered != admitted + shed");
    }
    if (shed != 0 || *stat("malformed") != 0) {
      fail("/stats: shed or malformed requests");
    }
    if (*stat("acked_points") != static_cast<double>(acked_points)) {
      fail("/stats acked_points disagrees with the client");
    }
  }
  if (!pass.drained) {
    fail("service did not drain cleanly");
  }
}

// --- Labelled scoring (detect) ------------------------------------------------

struct Score {
  double recall = 0.0;
  double precision = 0.0;
  size_t eligible = 0;
  size_t caught = 0;
  size_t reports = 0;
  size_t true_reports = 0;
};

// A served report: one NDJSON line.
struct Report {
  std::string metric;
  double detected_at = 0;
  double change_time = 0;
};

bool Matches(const Report& report, const fbdetect::InjectedEvent& event) {
  const std::string gcpu = event.service + "/gcpu/" + event.subroutine;
  if (report.metric != gcpu && report.metric.rfind(gcpu + "@", 0) != 0) {
    return false;
  }
  const double detected = report.detected_at;
  const fbdetect::WindowSpec& w = Detection().windows;
  return detected >= static_cast<double>(event.start) &&
         detected <= static_cast<double>(event.start + w.analysis + w.extended);
}

Score ScoreDetect(const Pass& pass, const ScannedFleet& scanned, const std::string& out_dir) {
  std::vector<TimePoint> schedule;
  std::vector<Report> reports;
  std::ofstream served(out_dir + "/reports.ndjson");
  for (const Span& span : pass.spans) {
    if (span.kind != Span::Kind::kRun || !span.timed) {
      continue;
    }
    schedule.push_back(span.cause);
    served << span.response;
    std::istringstream lines(span.response);
    std::string line;
    while (std::getline(lines, line)) {
      reports.push_back({JsonString(line, "metric").value_or(""),
                         JsonNumber(line, "detected_at").value_or(0),
                         JsonNumber(line, "change_time").value_or(0)});
    }
  }
  const fbdetect::WindowSpec& w = Detection().windows;
  std::ofstream truth(out_dir + "/ground_truth.json");
  std::ofstream matches(out_dir + "/matches.json");
  truth << "[\n";
  matches << "[\n";
  Score score;
  score.reports = reports.size();
  std::vector<bool> report_true(reports.size(), false);
  bool first_truth = true, first_match = true;
  for (const fbdetect::InjectedEvent& event : scanned.events) {
    if (!event.IsTrueRegression()) {
      continue;
    }
    for (size_t r = 0; r < reports.size(); ++r) {
      if (Matches(reports[r], event)) {
        report_true[r] = true;
      }
    }
    // Eligible: some scheduled re-run can report it by the matching rule.
    const bool eligible = std::any_of(schedule.begin(), schedule.end(), [&](TimePoint t) {
      return t >= event.start && t <= event.start + w.analysis + w.extended;
    });
    if (!eligible) {
      continue;
    }
    ++score.eligible;
    bool caught = false;
    for (size_t r = 0; r < reports.size(); ++r) {
      if (!Matches(reports[r], event)) {
        continue;
      }
      caught = true;
      matches << (first_match ? "  " : ",\n  ") << "{\"service\": \"" << JsonEscape(event.service) << "\", \"event_id\": " << event.event_id
              << ", \"metric\": \"" << reports[r].metric << "\", \"detected_at\": "
              << static_cast<long long>(reports[r].detected_at) << ", \"change_time\": "
              << static_cast<long long>(reports[r].change_time) << "}";
      first_match = false;
    }
    score.caught += caught ? 1 : 0;
    truth << (first_truth ? "  " : ",\n  ") << "{\"event_id\": " << event.event_id
          << ", \"kind\": \""
          << (event.kind == fbdetect::EventKind::kStepRegression ? "step" : "gradual")
          << "\", \"service\": \"" << JsonEscape(event.service) << "\", \"subroutine\": \""
          << JsonEscape(event.subroutine) << "\", \"start\": " << event.start
          << ", \"magnitude\": " << event.magnitude
          << ", \"caught\": " << (caught ? "true" : "false") << "}";
    first_truth = false;
  }
  truth << "\n]\n";
  matches << "\n]\n";
  score.true_reports =
      static_cast<size_t>(std::count(report_true.begin(), report_true.end(), true));
  score.recall = score.eligible == 0 ? 0.0
                                     : static_cast<double>(score.caught) /
                                           static_cast<double>(score.eligible);
  score.precision = score.reports == 0 ? 0.0
                                       : static_cast<double>(score.true_reports) /
                                             static_cast<double>(score.reports);
  return score;
}

// --- End-to-end metrics -------------------------------------------------------

// The timings every workload reports on the last output line
// (BENCHMARK.json end_to_end): the workload's main latency at p50 and p90
// (the highest percentile with ten samples beyond it on every workload) and
// its throughput.
struct Headline {
  double latency_p50 = 0, latency_p90 = 0, throughput = 0;
  size_t latency_n = 0, throughput_n = 0;
};

std::vector<double> Latencies(const Pass& pass, Span::Kind kind, bool from_due) {
  std::vector<double> out;
  for (const Span& span : pass.spans) {
    if (span.timed && span.kind == kind && span.status == 200) {
      out.push_back(from_due ? span.ms_from_due() : span.ms());
    }
  }
  return out;
}

// Series re-scanned per second of summed client-observed /run time.
double ScanSeriesPerSecond(const Pass& pass, const ScannedFleet& scanned, size_t* n) {
  double series = 0.0, seconds = 0.0;
  *n = 0;
  for (const Span& span : pass.spans) {
    if (!span.timed || span.kind != Span::Kind::kRun || span.status != 200) {
      continue;
    }
    const auto it = std::find(scanned.services.begin(), scanned.services.end(), span.service);
    series += static_cast<double>(
        scanned.series_per_service[static_cast<size_t>(it - scanned.services.begin())]);
    seconds += span.ms() / 1e3;
    ++*n;
  }
  return seconds > 0 ? series / seconds : 0.0;
}

void EndToEnd(const Options& options, const Pass& pass, const Inputs& inputs, Outcome& out,
              Headline& headline) {
  const std::string& w = options.workload;
  uint64_t attempted = 0, failed = 0, acked_points = 0;
  for (const Span& span : pass.spans) {
    if (span.timed) {
      ++attempted;
      failed += span.status == 200 ? 0 : 1;
      acked_points += span.acked_points;
    }
  }
  out.attempted = attempted;
  out.failed = failed;
  const auto add = [&out](const std::string& name, const std::string& unit, double value,
                          size_t n) { out.end_to_end.push_back({name, unit, value, n}); };
  if (w == "detect" || w == "live") {
    const std::vector<double> runs = Latencies(pass, Span::Kind::kRun, false);
    size_t scans = 0;
    const double series_per_s = ScanSeriesPerSecond(pass, inputs.scanned, &scans);
    add("scan_series_per_s", "series/s", series_per_s, scans);
    add("run_ms_p50", "ms", Percentile(runs, 0.5), runs.size());
    add("run_ms_p90", "ms", Percentile(runs, 0.9), runs.size());
    headline = {Percentile(runs, 0.5), Percentile(runs, 0.9), series_per_s, runs.size(), scans};
    if (w == "detect") {
      const Score score = ScoreDetect(pass, inputs.scanned, options.out_dir);
      add("recall", "fraction", score.recall, score.eligible);
      add("precision", "fraction", score.precision, score.reports);
    } else {
      const std::vector<double> acks = Latencies(pass, Span::Kind::kIngest, true);
      add("ack_ms_p90", "ms", Percentile(acks, 0.9), acks.size());
      add("ack_ms_p99", "ms", Percentile(acks, 0.99), acks.size());
    }
  } else {
    const std::vector<double> acks = Latencies(pass, Span::Kind::kIngest, false);
    const double seconds = static_cast<double>(pass.timed_end_ns - pass.timed_begin_ns) / 1e9;
    const double pts = static_cast<double>(acked_points) / seconds;
    add("ingest_pts_per_s", "points/s", pts, acks.size());
    add("ack_ms_p50", "ms", Percentile(acks, 0.5), acks.size());
    add("ack_ms_p90", "ms", Percentile(acks, 0.9), acks.size());
    headline = {Percentile(acks, 0.5), Percentile(acks, 0.9), pts, acks.size(), acks.size()};
  }
  add("failed_frac", "fraction",
      attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted),
      attempted);
  add("setup_s", "s", fbdetect::Median(pass.setup_s), pass.setup_s.size());
  add("generate_s", "s", inputs.generate_s, 1);
}

// --- Per-layer metrics (traced run) -------------------------------------------

// Counter and histogram deltas between two GET /telemetry scrapes. Counter
// members are keyed by instrument name; a histogram is an object whose
// "name" member holds it, followed by its "count" and "sum".
class TelemetryDelta {
 public:
  TelemetryDelta(const std::string& before, const std::string& after)
      : before_(before), after_(after) {}
  double Counter(const std::string& name) const {
    return JsonNumber(after_, name).value_or(0) - JsonNumber(before_, name).value_or(0);
  }
  double HistSum(const std::string& name) const {
    return Hist(after_, name, "sum") - Hist(before_, name, "sum");
  }
  double HistCount(const std::string& name) const {
    return Hist(after_, name, "count") - Hist(before_, name, "count");
  }

 private:
  static double Hist(const std::string& text, const std::string& name, const char* field) {
    for (size_t at = FindMember(text, "name"); at != std::string::npos;
         at = FindMember(text, "name", at)) {
      if (StringAt(text, at) == name) {
        return JsonNumber(text, field, at).value_or(0);
      }
    }
    return 0.0;
  }
  const std::string& before_;
  const std::string& after_;
};

constexpr const char* kScanStages[] = {"change_point", "went_away", "seasonality", "threshold",
                                       "long_term"};
constexpr const char* kFunnelStages[] = {"fingerprint", "same_regression_merger", "som_dedup",
                                         "cost_shift", "pairwise_dedup"};

std::vector<Metric> PerLayer(const std::string& workload, const Pass& pass, const Replay& replay,
                             const Headline& untraced, const Headline& traced) {
  std::vector<Metric> m;
  const auto add = [&m](const std::string& name, const std::string& unit, double value,
                        size_t n) { m.push_back({name, unit, value, n}); };
  const auto ratio = [](double a, double b) { return b == 0 ? 0.0 : a / b; };

  // service
  size_t requests = 0, failed = 0, acked_requests = 0;
  std::vector<double> acks, ack_overhead, run_overhead;
  std::vector<std::pair<uint64_t, uint64_t>> run_spans;
  for (size_t i = 0; i < pass.spans.size(); ++i) {
    const Span& span = pass.spans[i];
    if (!span.timed) {
      continue;
    }
    ++requests;
    failed += span.status == 200 ? 0 : 1;
    if (span.kind == Span::Kind::kIngest && span.status == 200) {
      ++acked_requests;
      acks.push_back(span.ms());
      ack_overhead.push_back(span.ms() - replay.cost_ms[i]);
    } else if (span.kind == Span::Kind::kRun && span.status == 200) {
      run_overhead.push_back(span.ms() - replay.cost_ms[i]);
      run_spans.emplace_back(span.start_ns, span.end_ns);
    }
  }
  size_t overlapping = 0;
  for (const Span& span : pass.spans) {
    if (span.timed && span.kind == Span::Kind::kIngest) {
      for (const auto& [begin, end] : run_spans) {
        if (span.start_ns < end && begin < span.end_ns) {
          ++overlapping;
          break;
        }
      }
    }
  }
  const TelemetryDelta tm(pass.telemetry_before, pass.telemetry_after);
  add("service.requests", "count", static_cast<double>(requests), requests);
  add("service.failed", "count", static_cast<double>(failed), requests);
  add("service.commits_per_request", "ratio",
      ratio(JsonNumber(pass.stats_after, "commits").value_or(0) -
                JsonNumber(pass.stats_before, "commits").value_or(0),
            static_cast<double>(acked_requests)),
      acked_requests);
  add("service.ingest_latency_ms_mean", "ms",
      ratio(tm.HistSum("service.ingest_latency_ns"), tm.HistCount("service.ingest_latency_ns")) /
          1e6,
      static_cast<size_t>(tm.HistCount("service.ingest_latency_ns")));
  add("service.ack_ms_p99", "ms", Percentile(acks, 0.99), acks.size());
  add("service.parse_ns_per_point", "ns",
      ratio(replay.parse_ns, static_cast<double>(replay.parsed_points)), replay.parsed_points);
  add("service.ack_overhead_ms_mean", "ms", fbdetect::Mean(ack_overhead), ack_overhead.size());
  add("service.run_overhead_ms_mean", "ms", fbdetect::Mean(run_overhead), run_overhead.size());

  // tsdb
  add("tsdb.intern_ns_per_series", "ns",
      ratio(replay.intern_ns, static_cast<double>(replay.interned_series)),
      replay.interned_series);
  add("tsdb.commit_ns_per_point", "ns",
      ratio(replay.commit_ns, static_cast<double>(replay.committed_points)),
      replay.committed_points);
  add("tsdb.seal_ms_mean", "ms", fbdetect::Mean(replay.seal_ms), replay.seal_ms.size());
  add("tsdb.seals", "count", static_cast<double>(replay.seal_ms.size()), replay.seal_ms.size());
  add("tsdb.sync_ms_mean", "ms", fbdetect::Mean(replay.sync_ms), replay.sync_ms.size());
  add("tsdb.group_commits", "count", static_cast<double>(replay.durable.group_commits), 1);
  add("tsdb.wal_mb_written", "MiB",
      static_cast<double>(replay.durable.log_bytes_written) / (1024.0 * 1024.0), 1);
  add("tsdb.chunks_persisted", "count", static_cast<double>(replay.durable.chunks_persisted), 1);
  add("tsdb.tail_hits", "count", static_cast<double>(replay.scan.tail_hits), 1);
  add("tsdb.sealed_decodes", "count", static_cast<double>(replay.scan.sealed_decodes), 1);
  add("tsdb.resident_sealed_mb", "MiB",
      static_cast<double>(replay.memory.resident_sealed_bytes) / (1024.0 * 1024.0), 1);

  // core
  const double scan_ms = tm.HistSum("pipeline.scan.wall_ns") / 1e6;
  add("core.run_ms_mean", "ms", fbdetect::Mean(replay.run_ms), replay.run_ms.size());
  add("core.scan_ms", "ms", scan_ms, static_cast<size_t>(tm.HistCount("pipeline.scan.wall_ns")));
  double scan_stage_ms = 0.0;
  const auto stage = [&](const char* name, bool scan_stage) {
    const std::string base = std::string("pipeline.stage.") + name;
    const double ms = tm.HistSum(base + ".wall_ns") / 1e6;
    const size_t n = static_cast<size_t>(tm.HistCount(base + ".wall_ns"));
    if (scan_stage) {
      scan_stage_ms += ms;
    }
    add(std::string("core.") + name + ".ms", "ms", ms, n);
    add(std::string("core.") + name + ".in", "count", tm.Counter(base + ".in"), n);
    add(std::string("core.") + name + ".out", "count", tm.Counter(base + ".out"), n);
  };
  for (const char* name : kScanStages) {
    stage(name, true);
  }
  for (const char* name : kFunnelStages) {
    stage(name, false);
  }
  add("core.long_term.keep_frac", "fraction",
      ratio(tm.Counter("pipeline.stage.long_term.out"), tm.Counter("pipeline.stage.long_term.in")),
      static_cast<size_t>(tm.Counter("pipeline.stage.long_term.in")));
  add("core.scan_unaccounted_frac", "fraction", scan_ms == 0 ? 0.0 : 1.0 - scan_stage_ms / scan_ms,
      static_cast<size_t>(tm.HistCount("pipeline.scan.wall_ns")));
  add("core.series_scanned", "count", tm.Counter("pipeline.scan.series_in"), 1);
  add("core.windows_quarantined", "count", tm.Counter("pipeline.scan.windows_quarantined"), 1);
  add("core.reported", "count", tm.Counter("pipeline.reported"), 1);

  // report
  add("report.render_us_per_line", "us",
      ratio(replay.render_ns / 1e3, static_cast<double>(replay.lines)), replay.lines);
  add("report.lines", "count", static_cast<double>(replay.lines), replay.lines);

  add("trace.overhead_frac", "fraction",
      untraced.latency_p50 == 0 ? 0.0 : traced.latency_p50 / untraced.latency_p50 - 1.0,
      traced.latency_n);

  // Only `live` sends ingest beside /run and runs an open-loop schedule.
  if (workload == "live") {
    add("service.acks_during_run_frac", "fraction",
        ratio(static_cast<double>(overlapping), static_cast<double>(acks.size())), acks.size());
    add("loadgen.late_ms_max", "ms", pass.late_ms_max, 1);
  }
  return m;
}

void WriteSpans(const Pass& pass, const std::string& path) {
  std::ofstream out(path);
  const uint64_t origin = pass.spans.empty() ? 0 : pass.spans.front().start_ns;
  for (const Span& span : pass.spans) {
    out << "{\"name\": \"" << SpanKindName(span.kind) << "\", \"timed\": "
        << (span.timed ? "true" : "false") << ", \"connection\": " << span.connection
        << ", \"start_us\": " << (span.start_ns - origin) / 1000
        << ", \"end_us\": " << (span.end_ns - origin) / 1000 << ", \"due_us\": "
        << (span.due_ns == 0 ? 0 : static_cast<int64_t>(span.due_ns - origin) / 1000)
        << ", \"status\": " << span.status << ", \"cause\": " << span.cause
        << ", \"points\": " << span.points << ", \"service\": \"" << JsonEscape(span.service)
        << "\"}\n";
  }
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "detect" || name == "ingest" || name == "live";
}

Outcome RunWorkload(const Options& options) {
  Runner runner(options);
  Outcome out;
  const Inputs inputs = runner.Generate();
  out.input_digest = inputs.digest;
  // End-to-end numbers always come from a pass with telemetry off.
  const Pass pass =
      runner.RunPass(/*traced=*/false, options.trace || options.tiny ? 1 : kSetups, inputs);
  CheckPass(pass, out.failures);
  Headline headline;
  EndToEnd(options, pass, inputs, out, headline);
  WriteSpans(pass, options.out_dir + "/spans.jsonl");
  if (!options.trace) {
    out.end_to_end.push_back({"peak_rss_mb", "MiB", PeakRssMb(), 1});
    out.summary = {
        {"latency_ms_p50", "ms", headline.latency_p50, headline.latency_n},
        {"latency_ms_p90", "ms", headline.latency_p90, headline.latency_n},
        {"throughput_per_s", "1/s", headline.throughput, headline.throughput_n},
        {"setup_s", "s", fbdetect::Median(pass.setup_s), pass.setup_s.size()},
        {"peak_rss_mb", "MiB", out.end_to_end.back().value, 1},
    };
    return out;
  }

  // Traced run: the same inputs again with the pipeline's telemetry on, then
  // the per-layer replay of exactly what that pass sent.
  const Pass traced = runner.RunPass(/*traced=*/true, 1, inputs);
  CheckPass(traced, out.failures);
  Outcome traced_out;
  Headline traced_headline;
  EndToEnd(options, traced, inputs, traced_out, traced_headline);
  out.attempted = traced_out.attempted;
  out.failed = traced_out.failed;
  const Replay replay = ReplaySpans(traced.spans, traced.scan_threads, options.scratch);
  if (options.workload == "detect") {
    size_t differing = 0;
    for (size_t i = 0; i < traced.spans.size(); ++i) {
      if (traced.spans[i].kind == Span::Kind::kRun &&
          traced.spans[i].response != replay.bodies[i]) {
        ++differing;
      }
    }
    if (differing > 0) {
      out.failures.push_back(std::to_string(differing) +
                             " served /run bodies differ from the offline replay");
    }
  }
  out.summary = PerLayer(options.workload, traced, replay, headline, traced_headline);
  WriteSpans(traced, options.out_dir + "/spans.jsonl");
  std::ofstream(options.out_dir + "/telemetry.json") << traced.telemetry_after;
  std::ofstream(options.out_dir + "/stats.json") << traced.stats_after;
  return out;
}

}  // namespace perfbench
