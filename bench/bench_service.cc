// Service-mode load harness (DESIGN.md §16): drives the overload-safe
// ingest server end-to-end over real loopback HTTP and records what the
// robustness layer promises —
//   * sustained:  closed-loop clients, unlimited admission -> points/sec
//                 through accept -> parse -> WriteBatch -> ack, plus
//                 client-observed p50/p99 latency;
//   * overload:   paced clients offering 0.5x / 1x / 4x the admitted rate
//                 against a token bucket -> exact shed accounting
//                 (offered == admitted + shed), bounded queue peaks;
//   * drain:      BeginDrain mid-load against a durable database -> drain
//                 wall time, and a reopen proving every acked point
//                 survived (ack-after-commit + checkpoint-on-drain).
//
// Writes BENCH_service.json. `--smoke` shrinks durations for CI. Exits
// non-zero if any invariant fails, so CI can gate on it.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/pipeline.h"
#include "src/service/client.h"
#include "src/service/server.h"
#include "src/service/workload.h"
#include "src/tsdb/database.h"

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

struct ClientResult {
  uint64_t requests = 0;
  uint64_t http_200 = 0;
  uint64_t http_shed = 0;  // 429 or 503.
  uint64_t transport_errors = 0;
  std::vector<double> latencies_ms;
};

struct LegResult {
  fbdetect::ServiceServer::Stats stats;
  double seconds = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  uint64_t client_requests = 0;
  uint64_t client_200 = 0;
  uint64_t client_shed = 0;
  uint64_t transport_errors = 0;
  double drain_ms = 0;
  bool drained = false;
};

double Percentile(std::vector<double>& values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t index = static_cast<size_t>(q * static_cast<double>(values.size() - 1));
  return values[index];
}

// One closed- or paced-loop client: POSTs synthetic batches until
// `stop` flips. `interval_ns` == 0 means closed-loop (as fast as acks come
// back); otherwise one request is launched per interval (offered-rate
// pacing for the overload sweep).
ClientResult RunClient(uint16_t port, const std::string& service, int series,
                       int points_per_series, uint64_t interval_ns,
                       const std::atomic<bool>& stop) {
  ClientResult result;
  fbdetect::SyntheticWorkload workload(service, series, points_per_series,
                                       /*start=*/0, /*step=*/60);
  fbdetect::HttpClient client;
  if (!client.Connect("127.0.0.1", port).ok()) {
    ++result.transport_errors;
    return result;
  }
  std::string body;
  result.latencies_ms.reserve(1 << 16);
  Clock::time_point next = Clock::now();
  while (!stop.load(std::memory_order_relaxed)) {
    if (interval_ns != 0) {
      std::this_thread::sleep_until(next);
      next += std::chrono::nanoseconds(interval_ns);
    }
    workload.NextBody(body);
    fbdetect::HttpResponse response;
    const Clock::time_point sent = Clock::now();
    const fbdetect::Status status =
        client.Post("/ingest", "application/x-fbdetect", body, &response);
    ++result.requests;
    if (!status.ok()) {
      ++result.transport_errors;
      if (!client.Connect("127.0.0.1", port).ok()) {
        break;  // Server is gone (drain leg tears it down mid-flight).
      }
      continue;
    }
    result.latencies_ms.push_back(MsSince(sent));
    if (response.status == 200) {
      ++result.http_200;
    } else if (response.status == 429 || response.status == 503) {
      ++result.http_shed;
    }
  }
  return result;
}

// Spins up a fresh db/pipeline/server, applies `load` for `seconds`, then
// drains (graceful) and returns the merged accounting.
LegResult RunLeg(fbdetect::TsdbOptions tsdb_options,
                 fbdetect::ServiceOptions service_options, int connections,
                 int series, int points_per_series, uint64_t interval_ns,
                 double seconds, uint64_t* reopened_points = nullptr) {
  fbdetect::TimeSeriesDatabase db(tsdb_options);
  fbdetect::PipelineOptions pipeline_options;
  fbdetect::Pipeline pipeline(&db, nullptr, nullptr, pipeline_options);
  fbdetect::ServiceServer server(&db, &pipeline, service_options);
  const fbdetect::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", started.message().c_str());
    std::exit(1);
  }
  std::thread loop([&server] { server.Run(); });

  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  std::vector<ClientResult> results(static_cast<size_t>(connections));
  const Clock::time_point begin = Clock::now();
  for (int c = 0; c < connections; ++c) {
    clients.emplace_back([&, c] {
      results[static_cast<size_t>(c)] =
          RunClient(server.port(), "svc_" + std::to_string(c), series,
                    points_per_series, interval_ns, stop);
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));

  // Drain while the clients are still firing — the drain leg's entire point.
  const Clock::time_point drain_begin = Clock::now();
  server.BeginDrain();
  loop.join();
  const double drain_ms = MsSince(drain_begin);
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : clients) {
    t.join();
  }

  LegResult leg;
  leg.stats = server.stats();
  leg.seconds = std::chrono::duration<double>(drain_begin - begin).count();
  leg.drain_ms = drain_ms;
  leg.drained = server.drained();
  std::vector<double> latencies;
  for (ClientResult& r : results) {
    leg.client_requests += r.requests;
    leg.client_200 += r.http_200;
    leg.client_shed += r.http_shed;
    leg.transport_errors += r.transport_errors;
    latencies.insert(latencies.end(), r.latencies_ms.begin(), r.latencies_ms.end());
  }
  leg.p50_ms = Percentile(latencies, 0.50);
  leg.p99_ms = Percentile(latencies, 0.99);

  if (reopened_points != nullptr) {
    // Reopen the durable directory: recovery must reproduce every acked
    // point (ack-after-commit + SealBefore checkpoint at drain).
    fbdetect::TimeSeriesDatabase reopened(tsdb_options);
    *reopened_points = reopened.total_points();
  }
  return leg;
}

bool CheckAccounting(const char* leg, const fbdetect::ServiceServer::Stats& s) {
  if (s.offered_requests != s.admitted_requests + s.shed()) {
    std::fprintf(stderr, "FAIL [%s]: offered %llu != admitted %llu + shed %llu\n", leg,
                 static_cast<unsigned long long>(s.offered_requests),
                 static_cast<unsigned long long>(s.admitted_requests),
                 static_cast<unsigned long long>(s.shed()));
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  std::printf("bench_service: overload-safe service mode%s\n", smoke ? " [smoke]" : "");
  bool ok = true;

  // --- Leg 1: sustained throughput, unlimited admission, closed loop ---
  fbdetect::ServiceOptions sustained_options;
  sustained_options.parse_threads = 2;
  sustained_options.flush_points = 64 * 1024;
  sustained_options.parse_high_watermark_points = 1 << 20;
  sustained_options.parse_low_watermark_points = 1 << 18;
  sustained_options.ingest_queue_points = 1 << 20;
  const int sustained_conns = 2;
  const int sustained_series = 512;
  const int sustained_pts = 64;  // 32768 points per request.
  const double sustained_secs = smoke ? 1.0 : 5.0;
  LegResult sustained =
      RunLeg(fbdetect::TsdbOptions{}, sustained_options, sustained_conns,
             sustained_series, sustained_pts, /*interval_ns=*/0, sustained_secs);
  const double sustained_pps =
      static_cast<double>(sustained.stats.acked_points) / sustained.seconds;
  std::printf("  sustained: %.0f pts/s (acked %llu in %.2fs), p50 %.2fms p99 %.2fms\n",
              sustained_pps, static_cast<unsigned long long>(sustained.stats.acked_points),
              sustained.seconds, sustained.p50_ms, sustained.p99_ms);
  ok = CheckAccounting("sustained", sustained.stats) && ok;

  // --- Leg 2: overload sweep against a token bucket ---
  const uint64_t admit_rate = smoke ? 200'000 : 500'000;
  const int overload_series = 128;
  const int overload_pts = 32;  // 4096 points per request.
  const uint64_t batch_points =
      static_cast<uint64_t>(overload_series) * static_cast<uint64_t>(overload_pts);
  const int overload_conns = 2;
  const double factors[] = {0.5, 1.0, 4.0};
  struct OverloadRow {
    double factor;
    LegResult leg;
    uint64_t capacity;
  };
  std::vector<OverloadRow> overload_rows;
  for (const double factor : factors) {
    fbdetect::ServiceOptions options;
    options.admit_points_per_sec = admit_rate;
    options.admit_burst_points = admit_rate / 4;
    options.parse_threads = 1;
    options.flush_points = 32 * 1024;
    options.parse_high_watermark_points = 128 * 1024;
    options.parse_low_watermark_points = 32 * 1024;
    options.ingest_queue_points = 128 * 1024;
    const double offered_pps = factor * static_cast<double>(admit_rate);
    // Each of `overload_conns` clients offers its share of the total rate:
    // one batch every batch_points / (offered_pps / conns) seconds.
    const uint64_t interval_ns =
        static_cast<uint64_t>(static_cast<double>(batch_points) *
                              static_cast<double>(overload_conns) / offered_pps * 1e9);
    LegResult leg = RunLeg(fbdetect::TsdbOptions{}, options, overload_conns,
                           overload_series, overload_pts, interval_ns,
                           smoke ? 1.0 : 3.0);
    const double shed_rate =
        leg.stats.offered_requests == 0
            ? 0
            : static_cast<double>(leg.stats.shed()) /
                  static_cast<double>(leg.stats.offered_requests);
    std::printf("  overload %.1fx: offered %llu admitted %llu shed %llu (%.0f%%; "
                "429=%llu 503=%llu) queue peak %llu pts\n",
                factor, static_cast<unsigned long long>(leg.stats.offered_requests),
                static_cast<unsigned long long>(leg.stats.admitted_requests),
                static_cast<unsigned long long>(leg.stats.shed()), shed_rate * 100.0,
                static_cast<unsigned long long>(leg.stats.shed_admission),
                static_cast<unsigned long long>(leg.stats.shed_backpressure +
                                                leg.stats.shed_drain),
                static_cast<unsigned long long>(leg.stats.parse_queue_peak_points));
    ok = CheckAccounting("overload", leg.stats) && ok;
    // The bound the queues promise: peak cost never exceeds capacity plus
    // one oversized item (cost accounting admits one batch into an empty
    // queue regardless of size).
    const uint64_t capacity = options.parse_high_watermark_points + batch_points;
    if (leg.stats.parse_queue_peak_points > capacity) {
      std::fprintf(stderr, "FAIL: parse queue peak %llu exceeds bound %llu\n",
                   static_cast<unsigned long long>(leg.stats.parse_queue_peak_points),
                   static_cast<unsigned long long>(capacity));
      ok = false;
    }
    overload_rows.push_back({factor, std::move(leg), capacity});
  }

  // --- Leg 3: graceful drain mid-load against a durable database ---
  const std::string drain_dir =
      (std::filesystem::temp_directory_path() / "fbd_bench_service_drain").string();
  std::filesystem::remove_all(drain_dir);
  fbdetect::TsdbOptions durable_options;
  durable_options.durable.directory = drain_dir;
  fbdetect::ServiceOptions drain_service;
  drain_service.parse_threads = 1;
  drain_service.flush_points = 16 * 1024;
  drain_service.seal_every_points = 128 * 1024;
  uint64_t reopened_points = 0;
  LegResult drain = RunLeg(durable_options, drain_service, 2, 128, 32,
                           /*interval_ns=*/0, smoke ? 0.5 : 2.0, &reopened_points);
  const bool lossless = reopened_points == drain.stats.acked_points;
  std::printf("  drain: %.1fms, drained=%s, acked %llu pts, reopened %llu pts -> %s\n",
              drain.drain_ms, drain.drained ? "clean" : "FORCED",
              static_cast<unsigned long long>(drain.stats.acked_points),
              static_cast<unsigned long long>(reopened_points),
              lossless ? "lossless" : "LOST DATA");
  ok = CheckAccounting("drain", drain.stats) && ok && drain.drained && lossless;
  std::filesystem::remove_all(drain_dir);

  // --- BENCH_service.json ---
  FILE* json = std::fopen("BENCH_service.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n");
    fbdetect::WriteHardwareJson(json);
    std::fprintf(json, ",\n  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(json,
                 "  \"sustained\": {\"connections\": %d, \"batch_points\": %d, "
                 "\"seconds\": %.2f, \"acked_points\": %llu, \"points_per_sec\": %.0f, "
                 "\"p50_ms\": %.3f, \"p99_ms\": %.3f, \"transport_errors\": %llu},\n",
                 sustained_conns, sustained_series * sustained_pts, sustained.seconds,
                 static_cast<unsigned long long>(sustained.stats.acked_points),
                 sustained_pps, sustained.p50_ms, sustained.p99_ms,
                 static_cast<unsigned long long>(sustained.transport_errors));
    std::fprintf(json, "  \"overload_admit_points_per_sec\": %llu,\n",
                 static_cast<unsigned long long>(admit_rate));
    std::fprintf(json, "  \"overload\": [\n");
    for (size_t i = 0; i < overload_rows.size(); ++i) {
      const OverloadRow& row = overload_rows[i];
      const fbdetect::ServiceServer::Stats& s = row.leg.stats;
      std::fprintf(json,
                   "    {\"factor\": %.1f, \"offered_requests\": %llu, "
                   "\"admitted_requests\": %llu, \"shed_admission\": %llu, "
                   "\"shed_backpressure\": %llu, \"shed_drain\": %llu, "
                   "\"acked_points\": %llu, \"parse_queue_peak_points\": %llu, "
                   "\"queue_bound_points\": %llu, \"accounting_exact\": %s, "
                   "\"p99_ms\": %.3f}%s\n",
                   row.factor, static_cast<unsigned long long>(s.offered_requests),
                   static_cast<unsigned long long>(s.admitted_requests),
                   static_cast<unsigned long long>(s.shed_admission),
                   static_cast<unsigned long long>(s.shed_backpressure),
                   static_cast<unsigned long long>(s.shed_drain),
                   static_cast<unsigned long long>(s.acked_points),
                   static_cast<unsigned long long>(s.parse_queue_peak_points),
                   static_cast<unsigned long long>(row.capacity),
                   s.offered_requests == s.admitted_requests + s.shed() ? "true" : "false",
                   row.leg.p99_ms, i + 1 < overload_rows.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json,
                 "  \"drain\": {\"drain_ms\": %.1f, \"drained_clean\": %s, "
                 "\"acked_points\": %llu, \"reopened_points\": %llu, "
                 "\"lossless\": %s, \"seals\": %llu}\n",
                 drain.drain_ms, drain.drained ? "true" : "false",
                 static_cast<unsigned long long>(drain.stats.acked_points),
                 static_cast<unsigned long long>(reopened_points),
                 lossless ? "true" : "false",
                 static_cast<unsigned long long>(drain.stats.seals));
    std::fprintf(json, "}\n");
    std::fclose(json);
    std::printf("  wrote BENCH_service.json\n");
  }

  if (!ok) {
    std::fprintf(stderr, "bench_service: INVARIANT FAILURES (see above)\n");
    return 1;
  }
  std::printf("bench_service: all invariants held\n");
  return 0;
}
