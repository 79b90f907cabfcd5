// Long-lived FBDetect service (DESIGN.md §16): live ingest over HTTP into a
// durable TimeSeriesDatabase, detection on demand via /run, Prometheus
// telemetry on /metrics, and a graceful SIGTERM drain (stop accepting ->
// flush admitted batches -> SealBefore checkpoint -> exit 0).
//
//   fbdetect_serve --port 8080 --data-dir /var/lib/fbdetect
//       --admit-pps 2000000 --flush-points 32768 --seal-every 1000000
//
// Exit status: 0 when the drain completed (every acked point checkpointed),
// 1 on startup failure or a drain that missed its deadline.
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/core/pipeline.h"
#include "src/service/server.h"
#include "src/tsdb/database.h"
#include "tools/parse_flag.h"

namespace {

fbdetect::ServiceServer* g_server = nullptr;

void HandleSignal(int) {
  if (g_server != nullptr) {
    g_server->BeginDrain();  // Async-signal-safe: one eventfd write.
  }
}

// Parses a whole flag value into its option's own type (so an out-of-range
// or negative value is rejected, not wrapped) or exits 1.
template <typename T>
void ParseOrExit(const char* flag, const char* value, T* out) {
  if (!fbdetect::ParseFlag(flag, value, out)) {
    std::exit(1);
  }
}

// Thread counts must also be at least 1.
void ParseThreadsOrExit(const char* flag, const char* value, int* out) {
  ParseOrExit(flag, value, out);
  if (*out < 1) {
    std::fprintf(stderr, "bad value for %s: %s\n", flag, value);
    std::exit(1);
  }
}

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--host IP] [--port N] [--data-dir PATH]\n"
               "          [--admit-pps N] [--admit-burst N] [--parse-threads N]\n"
               "          [--scan-threads N] [--flush-points N] [--seal-every N]\n"
               "          [--high-watermark N] [--low-watermark N]\n"
               "          [--request-timeout-ms N] [--drain-deadline-ms N]\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  fbdetect::ServiceOptions service;
  fbdetect::TsdbOptions tsdb;
  fbdetect::PipelineOptions pipeline_options;
  pipeline_options.telemetry.enabled = true;
  std::string data_dir;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage(argv[0]);
        std::exit(1);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--host") == 0) {
      service.host = next();
    } else if (std::strcmp(arg, "--port") == 0) {
      ParseOrExit(arg, next(), &service.port);
    } else if (std::strcmp(arg, "--data-dir") == 0) {
      data_dir = next();
    } else if (std::strcmp(arg, "--admit-pps") == 0) {
      ParseOrExit(arg, next(), &service.admit_points_per_sec);
    } else if (std::strcmp(arg, "--admit-burst") == 0) {
      ParseOrExit(arg, next(), &service.admit_burst_points);
    } else if (std::strcmp(arg, "--parse-threads") == 0) {
      ParseThreadsOrExit(arg, next(), &service.parse_threads);
    } else if (std::strcmp(arg, "--scan-threads") == 0) {
      ParseThreadsOrExit(arg, next(), &pipeline_options.scan_threads);
    } else if (std::strcmp(arg, "--flush-points") == 0) {
      ParseOrExit(arg, next(), &service.flush_points);
    } else if (std::strcmp(arg, "--seal-every") == 0) {
      ParseOrExit(arg, next(), &service.seal_every_points);
    } else if (std::strcmp(arg, "--high-watermark") == 0) {
      ParseOrExit(arg, next(), &service.parse_high_watermark_points);
    } else if (std::strcmp(arg, "--low-watermark") == 0) {
      ParseOrExit(arg, next(), &service.parse_low_watermark_points);
    } else if (std::strcmp(arg, "--request-timeout-ms") == 0) {
      ParseOrExit(arg, next(), &service.request_timeout_ms);
    } else if (std::strcmp(arg, "--drain-deadline-ms") == 0) {
      ParseOrExit(arg, next(), &service.drain_deadline_ms);
    } else {
      Usage(argv[0]);
      return std::strcmp(arg, "--help") == 0 ? 0 : 1;
    }
  }

  tsdb.durable.directory = data_dir;  // Empty = memory-only.
  fbdetect::TimeSeriesDatabase db(tsdb);
  fbdetect::Pipeline pipeline(&db, nullptr, nullptr, pipeline_options);
  fbdetect::ServiceServer server(&db, &pipeline, service);

  const fbdetect::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start failed: %s\n", started.message().c_str());
    return 1;
  }
  g_server = &server;
  struct sigaction action {};
  action.sa_handler = HandleSignal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);

  std::fprintf(stderr, "fbdetect_serve listening on %s:%u (durable: %s)\n",
               service.host.c_str(), server.port(),
               data_dir.empty() ? "off" : data_dir.c_str());
  const bool drained = server.Run();
  const fbdetect::ServiceServer::Stats stats = server.stats();
  std::fprintf(stderr,
               "drain %s: offered=%llu admitted=%llu acked_points=%llu shed=%llu\n",
               drained ? "clean" : "FORCED",
               static_cast<unsigned long long>(stats.offered_requests),
               static_cast<unsigned long long>(stats.admitted_requests),
               static_cast<unsigned long long>(stats.acked_points),
               static_cast<unsigned long long>(stats.shed()));
  return drained ? 0 : 1;
}
