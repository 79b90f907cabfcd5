// The system under test, hosted in-process: a ServiceServer (the server
// `fbdetect_serve` runs) over a durable TimeSeriesDatabase in a fresh
// temporary directory, driven over loopback HTTP by blocking clients that
// record one span per request.
#ifndef PERFBENCH_HARNESS_SERVICE_H_
#define PERFBENCH_HARNESS_SERVICE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "harness/inputs.h"
#include "src/core/pipeline.h"
#include "src/service/client.h"
#include "src/service/server.h"
#include "src/tsdb/database.h"

namespace perfbench {

uint64_t NowNs();

// A directory created under `parent` and removed (recursively) on
// destruction, so every exit path that unwinds cleans it up.
class TempDir {
 public:
  explicit TempDir(const std::string& parent);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Pipeline options of the served service: Table 1's FrontFaaS (small) row
// and otherwise the options fbdetect_serve builds (no change log, so root
// cause does no work). Telemetry is on only for the traced run.
fbdetect::PipelineOptions ServedPipelineOptions(int scan_threads, bool telemetry);

// Durable TSDB options rooted at `directory`, else defaults.
fbdetect::TsdbOptions DurableTsdbOptions(const std::string& directory);

class HostedService {
 public:
  HostedService(const std::string& scratch_parent, int scan_threads, bool telemetry);
  ~HostedService();
  HostedService(const HostedService&) = delete;
  HostedService& operator=(const HostedService&) = delete;

  uint16_t port() const { return server_.port(); }
  // Graceful drain (checkpoint included); returns true when it completed.
  bool Drain();

 private:
  TempDir dir_;
  fbdetect::TimeSeriesDatabase db_;
  fbdetect::Pipeline pipeline_;
  fbdetect::ServiceServer server_;
  std::thread loop_;
  bool drained_ = false;
};

// One client request as the benchmark saw it.
struct Span {
  enum class Kind { kIngest, kRun, kSeal };
  Kind kind = Kind::kIngest;
  bool timed = false;      // Inside the measured phase (else set-up).
  int connection = 0;
  uint64_t due_ns = 0;     // Open loop: when the request was due.
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int status = 0;          // HTTP status; -1 on a transport error.
  TimePoint cause = 0;     // Ingest: newest tick; run: as_of; seal: boundary.
  // Ingest replay input: the pooled body and its timestamp shift.
  const WireBody* body = nullptr;
  int64_t shift = 0;
  uint32_t points = 0;     // Ingest: points sent.
  uint64_t acked_points = 0;
  std::string service;     // Run: the service scanned.
  std::string response;    // Run: the NDJSON body.

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
  // Open-loop latency: from due time when one was set.
  double ms_from_due() const {
    return static_cast<double>(end_ns - (due_ns != 0 ? due_ns : start_ns)) / 1e6;
  }
};

const char* SpanKindName(Span::Kind kind);

// A blocking client connection that records a span per request.
class Connection {
 public:
  Connection(uint16_t port, int id);
  int id() const { return id_; }

  // POST /ingest of `body` shifted by `shift`; `scratch` is reused.
  Span Ingest(const WireBody& body, int64_t shift, std::string& scratch, uint64_t due_ns = 0);
  Span Run(const std::string& service, TimePoint as_of, uint64_t due_ns = 0);
  Span Seal(TimePoint boundary);
  // GET of a JSON endpoint; empty string on failure.
  std::string Get(std::string_view target);

 private:
  void Exchange(std::string_view method, std::string_view target,
                std::string_view content_type, std::string_view body, Span& span);

  uint16_t port_;
  int id_;
  fbdetect::HttpClient client_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_SERVICE_H_
