#include "harness/service.h"

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <system_error>

#include "harness/json.h"
#include "src/core/workload_config.h"

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

TempDir::TempDir(const std::string& parent) {
  std::filesystem::create_directories(parent);
  std::string templ = parent + "/durable-XXXXXX";
  if (::mkdtemp(templ.data()) == nullptr) {
    throw std::runtime_error("mkdtemp failed under " + parent);
  }
  path_ = templ;
}

TempDir::~TempDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

fbdetect::PipelineOptions ServedPipelineOptions(int scan_threads, bool telemetry) {
  fbdetect::PipelineOptions options;
  options.detection = fbdetect::FrontFaaSSmallConfig();
  options.scan_threads = scan_threads;
  options.telemetry.enabled = telemetry;
  return options;
}

fbdetect::TsdbOptions DurableTsdbOptions(const std::string& directory) {
  fbdetect::TsdbOptions options;
  options.durable.directory = directory;
  return options;
}

HostedService::HostedService(const std::string& scratch_parent, int scan_threads,
                             bool telemetry)
    : dir_(scratch_parent),
      db_(DurableTsdbOptions(dir_.path())),
      pipeline_(&db_, nullptr, nullptr, ServedPipelineOptions(scan_threads, telemetry)),
      server_(&db_, &pipeline_, fbdetect::ServiceOptions{}) {
  const fbdetect::Status started = server_.Start();
  if (!started.ok()) {
    throw std::runtime_error("server start failed: " + started.message());
  }
  loop_ = std::thread([this] { server_.Run(); });
}

HostedService::~HostedService() { Drain(); }

bool HostedService::Drain() {
  if (loop_.joinable()) {
    server_.BeginDrain();
    loop_.join();
    drained_ = server_.drained();
  }
  return drained_;
}

const char* SpanKindName(Span::Kind kind) {
  switch (kind) {
    case Span::Kind::kIngest:
      return "ingest";
    case Span::Kind::kRun:
      return "run";
    case Span::Kind::kSeal:
      return "seal";
  }
  return "?";
}

Connection::Connection(uint16_t port, int id) : port_(port), id_(id) {
  const fbdetect::Status connected = client_.Connect("127.0.0.1", port_, 60000);
  if (!connected.ok()) {
    throw std::runtime_error("connect failed: " + connected.message());
  }
}

void Connection::Exchange(std::string_view method, std::string_view target,
                          std::string_view content_type, std::string_view body, Span& span) {
  span.connection = id_;
  fbdetect::HttpResponse response;
  span.start_ns = NowNs();
  const fbdetect::Status status =
      client_.Request(method, target, content_type, body, &response);
  span.end_ns = NowNs();
  if (!status.ok()) {
    span.status = -1;
    client_.Connect("127.0.0.1", port_, 60000);  // The next request retries the link.
    return;
  }
  span.status = response.status;
  span.response = std::move(response.body);
}

Span Connection::Ingest(const WireBody& body, int64_t shift, std::string& scratch,
                        uint64_t due_ns) {
  Span span;
  span.kind = Span::Kind::kIngest;
  span.due_ns = due_ns;
  span.cause = body.last_tick + shift;
  span.body = &body;
  span.shift = shift;
  span.points = body.points;
  LoadBody(body, shift, scratch);
  Exchange("POST", "/ingest", "application/x-fbdetect", scratch, span);
  if (span.status == 200) {
    span.acked_points = static_cast<uint64_t>(JsonNumber(span.response, "points").value_or(0));
  }
  span.response.clear();
  return span;
}

Span Connection::Run(const std::string& service, TimePoint as_of, uint64_t due_ns) {
  Span span;
  span.kind = Span::Kind::kRun;
  span.due_ns = due_ns;
  span.cause = as_of;
  span.service = service;
  Exchange("POST", "/run?service=" + service + "&as_of=" + std::to_string(as_of), "", "",
           span);
  return span;
}

Span Connection::Seal(TimePoint boundary) {
  Span span;
  span.kind = Span::Kind::kSeal;
  span.cause = boundary;
  Exchange("POST", "/seal?boundary=" + std::to_string(boundary), "", "", span);
  span.response.clear();
  return span;
}

std::string Connection::Get(std::string_view target) {
  Span span;
  Exchange("GET", target, "", "", span);
  return span.status == 200 ? span.response : std::string();
}

}  // namespace perfbench
