#include "src/service/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <span>
#include <utility>

#include "src/observe/telemetry.h"
#include "src/observe/telemetry_export.h"
#include "src/report/report.h"

namespace fbdetect {
namespace {

// epoll user data: low tags for the server's own fds, connection serials
// start at 16 (see next_conn_serial_).
constexpr uint64_t kListenTag = 0;
constexpr uint64_t kWakeTag = 1;
constexpr uint64_t kDrainTag = 2;

uint64_t NowNanos() { return StageTimer::WallNowNanos(); }

std::span<const uint8_t> BodySpan(const std::string& body) {
  return {reinterpret_cast<const uint8_t*>(body.data()), body.size()};
}

void DrainEventFd(int fd) {
  uint64_t value = 0;
  while (::read(fd, &value, sizeof(value)) == static_cast<ssize_t>(sizeof(value))) {
  }
}

bool ParseTimePoint(const std::string& text, TimePoint* out) {
  const auto [p, err] = std::from_chars(text.data(), text.data() + text.size(), *out);
  return err == std::errc() && p == text.data() + text.size();
}

}  // namespace

struct ServiceServer::Connection {
  explicit Connection(HttpParser::Limits limits) : parser(limits) {}

  uint64_t serial = 0;
  int fd = -1;
  HttpParser parser;
  std::string write_buffer;
  size_t write_offset = 0;
  uint32_t events = 0;  // Current epoll interest mask.
  // A request of this connection is in the worker stages; reads are paused
  // (interest dropped, TCP backpressure does the rest) until its completion
  // arrives, so per-connection buffered memory stays bounded.
  bool awaiting_completion = false;
  bool close_after_write = false;
  uint64_t deadline_ns = 0;  // 0 = no request in flight on the wire.
};

ServiceServer::ServiceServer(TimeSeriesDatabase* db, Pipeline* pipeline,
                             ServiceOptions options)
    : db_(db),
      pipeline_(pipeline),
      options_(std::move(options)),
      bucket_(options_.admit_points_per_sec, options_.admit_burst_points),
      parse_queue_(options_.parse_high_watermark_points),
      ingest_queue_(options_.ingest_queue_points),
      control_queue_(64) {
  TelemetryRegistry& registry = pipeline_->telemetry();
  const auto runtime = [&registry](std::string_view name) {
    return registry.GetCounter(name, CounterStability::kRuntime);
  };
  counters_ = Counters{
      .offered_requests = runtime("service.offered_requests"),
      .admitted_requests = runtime("service.admitted_requests"),
      .admitted_points = runtime("service.admitted_points"),
      .acked_points = runtime("service.acked_points"),
      .shed_admission = runtime("service.shed_admission"),
      .shed_backpressure = runtime("service.shed_backpressure"),
      .shed_drain = runtime("service.shed_drain"),
      .malformed = runtime("service.malformed_requests"),
      .evicted_slow_clients = runtime("service.evicted_slow_clients"),
      .refused_connections = runtime("service.refused_connections"),
      .commits = runtime("service.commits"),
      .seals = runtime("service.seals"),
      .queued_points = runtime("service.queued_points"),
  };
  ingest_latency_ns_ = registry.GetHistogram("service.ingest_latency_ns");
}

ServiceServer::~ServiceServer() {
  JoinWorkers();
  for (auto& [serial, conn] : connections_) {
    ::close(conn->fd);
  }
  connections_.clear();
  for (int* fd : {&listen_fd_, &epoll_fd_, &wake_fd_, &drain_fd_}) {
    if (*fd >= 0) {
      ::close(*fd);
      *fd = -1;
    }
  }
}

Status ServiceServer::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket failed: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad IPv4 host: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Status::Internal(std::string("bind failed: ") + std::strerror(errno));
  }
  if (::listen(listen_fd_, 512) != 0) {
    return Status::Internal(std::string("listen failed: ") + std::strerror(errno));
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len) == 0) {
    port_ = ntohs(addr.sin_port);
  }

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  drain_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0 || drain_fd_ < 0) {
    return Status::Internal(std::string("epoll/eventfd failed: ") + std::strerror(errno));
  }
  const auto watch = [this](int fd, uint64_t tag) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = tag;
    return ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  };
  if (watch(listen_fd_, kListenTag) != 0 || watch(wake_fd_, kWakeTag) != 0 ||
      watch(drain_fd_, kDrainTag) != 0) {
    return Status::Internal(std::string("epoll_ctl failed: ") + std::strerror(errno));
  }

  const int parse_threads = std::max(1, options_.parse_threads);
  parse_workers_.reserve(static_cast<size_t>(parse_threads));
  for (int i = 0; i < parse_threads; ++i) {
    parse_workers_.emplace_back([this] { ParseWorker(); });
  }
  ingest_worker_ = std::thread([this] { IngestWorker(); });
  control_worker_ = std::thread([this] { ControlWorker(); });
  return Status::Ok();
}

bool ServiceServer::Run() {
  if (epoll_fd_ < 0) {
    return false;
  }
  epoll_event events[64];
  while (!stop_.load(std::memory_order_relaxed)) {
    const int n = ::epoll_wait(epoll_fd_, events, 64, 20);
    if (n < 0 && errno != EINTR) {
      break;
    }
    const uint64_t now = NowNanos();
    for (int i = 0; i < std::max(n, 0); ++i) {
      const uint64_t tag = events[i].data.u64;
      if (tag == kListenTag) {
        AcceptReady(now);
        continue;
      }
      if (tag == kWakeTag) {
        DrainEventFd(wake_fd_);
        continue;
      }
      if (tag == kDrainTag) {
        DrainEventFd(drain_fd_);
        if (!draining_.exchange(true, std::memory_order_relaxed)) {
          drain_started_ns_ = now;
          accepting_ = false;
          if (listen_fd_ >= 0) {
            ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
            ::close(listen_fd_);
            listen_fd_ = -1;
          }
        }
        continue;
      }
      const auto it = connections_.find(tag);
      if (it == connections_.end()) {
        continue;  // Closed earlier in this batch.
      }
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConnection(*it->second);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) {
        ConnectionReadable(*it->second, now);
      }
      const auto again = connections_.find(tag);
      if (again != connections_.end() && (events[i].events & EPOLLOUT) != 0) {
        ConnectionWritable(*again->second);
      }
    }
    DrainCompletions();
    const uint64_t after = NowNanos();
    SweepTimeouts(after);
    counters_.queued_points->Set(parse_queue_.cost() + ingest_queue_.cost());
    if (draining_.load(std::memory_order_relaxed)) {
      AdvanceDrain(after);
      if (workers_joined_) {
        break;
      }
    }
  }
  JoinWorkers();
  DrainCompletions();
  // Best-effort final flush of buffered responses before the fds go away.
  for (auto& [serial, conn] : connections_) {
    if (conn->write_offset < conn->write_buffer.size()) {
      (void)::send(conn->fd, conn->write_buffer.data() + conn->write_offset,
                   conn->write_buffer.size() - conn->write_offset, MSG_NOSIGNAL);
    }
    ::close(conn->fd);
  }
  connections_.clear();
  return drained_.load(std::memory_order_relaxed);
}

void ServiceServer::BeginDrain() {
  // Async-signal-safe: one write syscall on a pre-created eventfd.
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(drain_fd_, &one, sizeof(one));
}

void ServiceServer::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void ServiceServer::JoinWorkers() {
  if (workers_joined_) {
    return;
  }
  workers_joined_ = true;
  parse_queue_.Close();
  ingest_queue_.Close();
  control_queue_.Close();
  for (std::thread& worker : parse_workers_) {
    if (worker.joinable()) {
      worker.join();
    }
  }
  if (ingest_worker_.joinable()) {
    ingest_worker_.join();
  }
  if (control_worker_.joinable()) {
    control_worker_.join();
  }
}

// --- Event-loop internals ---

void ServiceServer::AcceptReady(uint64_t now_ns) {
  (void)now_ns;
  while (accepting_ && listen_fd_ >= 0) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      return;  // EAGAIN (drained) or transient error; epoll will re-arm.
    }
    if (connections_.size() >= options_.max_connections) {
      ::close(fd);
      counters_.refused_connections->Increment();
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    HttpParser::Limits limits;
    limits.max_body_bytes = options_.max_body_bytes;
    auto conn = std::make_unique<Connection>(limits);
    conn->serial = next_conn_serial_++;
    conn->fd = fd;
    conn->events = EPOLLIN;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->serial;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    connections_.emplace(conn->serial, std::move(conn));
  }
}

void ServiceServer::UpdateInterest(Connection& conn, uint32_t events) {
  if (conn.events == events) {
    return;
  }
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = conn.serial;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev) == 0) {
    conn.events = events;
  }
}

void ServiceServer::ConnectionReadable(Connection& conn, uint64_t now_ns) {
  if (conn.awaiting_completion || !conn.write_buffer.empty()) {
    // A request is still being answered; pause reads (level-triggered epoll
    // would spin otherwise) until the response flushes.
    UpdateInterest(conn, conn.events & ~static_cast<uint32_t>(EPOLLIN));
    return;
  }
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return;
      }
      CloseConnection(conn);
      return;
    }
    if (n == 0) {
      CloseConnection(conn);
      return;
    }
    if (conn.deadline_ns == 0 && options_.request_timeout_ms > 0) {
      conn.deadline_ns = now_ns + options_.request_timeout_ms * 1'000'000ull;
    }
    const HttpParser::Result result = conn.parser.Feed(buf, static_cast<size_t>(n));
    if (result == HttpParser::Result::kError) {
      counters_.malformed->Increment();
      conn.close_after_write = true;
      SendResponse(conn, conn.parser.error_status(), "text/plain",
                   conn.parser.error_reason());
      return;
    }
    if (result == HttpParser::Result::kComplete) {
      HandleRequest(conn, now_ns);
      // Whatever the outcome (queued or answered inline), reads stay paused
      // until the response is fully written; pipelined bytes wait buffered.
      const auto it = connections_.find(conn.serial);
      if (it != connections_.end()) {
        UpdateInterest(conn, conn.events & ~static_cast<uint32_t>(EPOLLIN));
      }
      return;
    }
  }
}

void ServiceServer::ConnectionWritable(Connection& conn) {
  while (conn.write_offset < conn.write_buffer.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.write_buffer.data() + conn.write_offset,
               conn.write_buffer.size() - conn.write_offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return;
      }
      CloseConnection(conn);
      return;
    }
    conn.write_offset += static_cast<size_t>(n);
  }
  conn.write_buffer.clear();
  conn.write_offset = 0;
  if (conn.close_after_write) {
    CloseConnection(conn);
    return;
  }
  // Response delivered: the request cycle is over.
  conn.deadline_ns = 0;
  conn.parser.Reset();
  UpdateInterest(conn, EPOLLIN);
  // A pipelined next request may already be buffered.
  const HttpParser::Result result = conn.parser.Continue();
  if (result == HttpParser::Result::kError) {
    counters_.malformed->Increment();
    conn.close_after_write = true;
    SendResponse(conn, conn.parser.error_status(), "text/plain",
                 conn.parser.error_reason());
    return;
  }
  const uint64_t now = NowNanos();
  if (conn.parser.buffered_bytes() > 0 && options_.request_timeout_ms > 0) {
    conn.deadline_ns = now + options_.request_timeout_ms * 1'000'000ull;
  }
  if (result == HttpParser::Result::kComplete) {
    HandleRequest(conn, now);
    const auto it = connections_.find(conn.serial);
    if (it != connections_.end()) {
      UpdateInterest(conn, conn.events & ~static_cast<uint32_t>(EPOLLIN));
    }
  }
}

void ServiceServer::HandleRequest(Connection& conn, uint64_t now_ns) {
  const HttpRequest& request = conn.parser.request();
  const std::string_view path = HttpPath(request.target);
  if (request.method == "POST" && path == "/ingest") {
    HandleIngest(conn, request, now_ns);
    return;
  }
  if (HandleImmediate(conn, request)) {
    return;
  }

  // Control-plane endpoints run on the control worker under the db phase
  // mutex; the event loop only queues them.
  ControlJob job;
  job.conn_serial = conn.serial;
  if (request.method == "POST" && path == "/run") {
    job.kind = ControlJob::Kind::kRun;
    job.service = HttpQueryParam(request.target, "service");
    const std::string as_of = HttpQueryParam(request.target, "as_of");
    if (job.service.empty() || !ParseTimePoint(as_of, &job.as_of)) {
      SendResponse(conn, 400, "text/plain", "need service=<name>&as_of=<seconds>");
      return;
    }
  } else if (request.method == "GET" && path == "/quarantine") {
    job.kind = ControlJob::Kind::kQuarantine;
  } else if (request.method == "POST" && path == "/seal") {
    job.kind = ControlJob::Kind::kSeal;
    const std::string boundary = HttpQueryParam(request.target, "boundary");
    if (boundary.empty()) {
      job.boundary = max_ingested_ts_.load(std::memory_order_relaxed) + 1;
    } else if (!ParseTimePoint(boundary, &job.boundary)) {
      SendResponse(conn, 400, "text/plain", "bad boundary");
      return;
    }
  } else {
    SendResponse(conn, 404, "text/plain", "unknown target");
    return;
  }
  control_submitted_.fetch_add(1, std::memory_order_relaxed);
  if (!control_queue_.TryPush(std::move(job), 1)) {
    control_submitted_.fetch_sub(1, std::memory_order_relaxed);
    SendResponse(conn, 503, "application/json", "{\"error\":\"control queue full\"}",
                 {"Retry-After: 1"});
    return;
  }
  conn.awaiting_completion = true;
}

void ServiceServer::HandleIngest(Connection& conn, const HttpRequest& request,
                                 uint64_t now_ns) {
  const bool binary = request.Header("content-type") == "application/x-fbdetect";
  uint32_t points = 0;
  if (binary) {
    const Status peek = PeekWirePoints(BodySpan(request.body), &points);
    if (!peek.ok()) {
      counters_.malformed->Increment();
      SendResponse(conn, 400, "text/plain", peek.message());
      return;
    }
  } else {
    points = CountTextPoints(request.body);
  }

  // Shed taxonomy, in decision order — every well-formed request lands in
  // exactly one of {admitted, shed_drain, shed_backpressure, shed_admission}.
  counters_.offered_requests->Increment();
  if (draining_.load(std::memory_order_relaxed)) {
    counters_.shed_drain->Increment();
    SendResponse(conn, 503, "application/json", "{\"shed\":\"drain\"}",
                 {"Retry-After: 1"});
    return;
  }
  UpdateWatermark();
  if (backpressure_) {
    counters_.shed_backpressure->Increment();
    SendResponse(conn, 503, "application/json", "{\"shed\":\"backpressure\"}",
                 {"Retry-After: 1"});
    return;
  }
  if (!bucket_.Admit(points, now_ns)) {
    counters_.shed_admission->Increment();
    SendResponse(conn, 429, "application/json", "{\"shed\":\"admission\"}",
                 {"Retry-After: 1"});
    return;
  }
  if (points == 0) {
    // An empty batch admits trivially: nothing to queue or commit.
    counters_.admitted_requests->Increment();
    SendResponse(conn, 200, "application/json", "{\"status\":\"ok\",\"points\":0}");
    return;
  }

  ParseJob job;
  job.conn_serial = conn.serial;
  job.body = std::move(conn.parser.mutable_request().body);
  job.binary = binary;
  job.points = points;
  job.received_ns = now_ns;
  parse_submitted_.fetch_add(1, std::memory_order_relaxed);
  if (!parse_queue_.TryPush(std::move(job), points)) {
    parse_submitted_.fetch_sub(1, std::memory_order_relaxed);
    bucket_.Refund(points);
    backpressure_ = true;  // The queue is at capacity: flip hysteresis now.
    counters_.shed_backpressure->Increment();
    SendResponse(conn, 503, "application/json", "{\"shed\":\"backpressure\"}",
                 {"Retry-After: 1"});
    return;
  }
  counters_.admitted_requests->Increment();
  counters_.admitted_points->Add(points);
  conn.awaiting_completion = true;
}

bool ServiceServer::HandleImmediate(Connection& conn, const HttpRequest& request) {
  const std::string_view path = HttpPath(request.target);
  if (request.method == "GET") {
    if (path == "/healthz") {
      SendResponse(conn, 200, "application/json", HealthJson());
      return true;
    }
    if (path == "/stats") {
      SendResponse(conn, 200, "application/json", StatsJson());
      return true;
    }
    if (path == "/config") {
      SendResponse(conn, 200, "application/json", ConfigJson());
      return true;
    }
    if (path == "/metrics") {
      SendResponse(conn, 200, "text/plain; version=0.0.4",
                   RenderTelemetryPrometheus({&db_->telemetry(), &pipeline_->telemetry()}));
      return true;
    }
    if (path == "/telemetry") {
      SendResponse(conn, 200, "application/json",
                   RenderTelemetryJson({&db_->telemetry(), &pipeline_->telemetry()},
                                       /*include_runtime=*/true));
      return true;
    }
  }
  if (request.method == "POST" && path == "/drain") {
    BeginDrain();
    SendResponse(conn, 202, "application/json", "{\"draining\":true}");
    return true;
  }
  return false;
}

void ServiceServer::SendResponse(Connection& conn, int status,
                                 std::string_view content_type, std::string_view body,
                                 const std::vector<std::string>& extra) {
  const bool keep_alive = conn.parser.request().keep_alive && !conn.close_after_write;
  if (!keep_alive) {
    conn.close_after_write = true;
  }
  conn.write_buffer += BuildHttpResponse(status, content_type, body, keep_alive, extra);
  UpdateInterest(conn, (conn.events & ~static_cast<uint32_t>(EPOLLIN)) | EPOLLOUT);
}

void ServiceServer::CloseConnection(Connection& conn) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  ::close(conn.fd);
  connections_.erase(conn.serial);  // `conn` is dead; callers return immediately.
}

void ServiceServer::PostCompletion(Completion completion) {
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    completions_.push_back(std::move(completion));
  }
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void ServiceServer::DrainCompletions() {
  std::vector<Completion> ready;
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    ready.swap(completions_);
  }
  for (Completion& completion : ready) {
    const auto it = connections_.find(completion.conn_serial);
    if (it == connections_.end()) {
      continue;  // Client evicted or gone; the ack has no one to go to.
    }
    Connection& conn = *it->second;
    conn.awaiting_completion = false;
    SendResponse(conn, completion.status, completion.content_type, completion.body);
  }
}

void ServiceServer::SweepTimeouts(uint64_t now_ns) {
  if (options_.request_timeout_ms == 0) {
    return;
  }
  std::vector<uint64_t> doomed;
  for (const auto& [serial, conn] : connections_) {
    // Slow-CLIENT defense only: a connection waiting on the server's own
    // commit (awaiting_completion) is never the client's fault.
    if (conn->deadline_ns != 0 && now_ns > conn->deadline_ns &&
        !conn->awaiting_completion) {
      doomed.push_back(serial);
    }
  }
  for (const uint64_t serial : doomed) {
    const auto it = connections_.find(serial);
    if (it != connections_.end()) {
      counters_.evicted_slow_clients->Increment();
      CloseConnection(*it->second);
    }
  }
}

void ServiceServer::UpdateWatermark() {
  const uint64_t cost = parse_queue_.cost();
  if (!backpressure_ && cost >= options_.parse_high_watermark_points) {
    backpressure_ = true;
  } else if (backpressure_ && cost <= options_.parse_low_watermark_points) {
    backpressure_ = false;
  }
}

void ServiceServer::AdvanceDrain(uint64_t now_ns) {
  const bool deadline_hit =
      options_.drain_deadline_ms > 0 &&
      now_ns - drain_started_ns_ > options_.drain_deadline_ms * 1'000'000ull;
  const bool parse_idle = parse_done_.load(std::memory_order_acquire) ==
                          parse_submitted_.load(std::memory_order_acquire);
  const bool ingest_idle = ingest_done_.load(std::memory_order_acquire) ==
                           ingest_submitted_.load(std::memory_order_acquire);
  if (!checkpoint_enqueued_ && parse_idle && ingest_idle) {
    // Every admitted batch is committed and acked; checkpoint past the
    // newest ingested timestamp so the WAL tail is empty on reopen.
    ControlJob job;
    job.kind = ControlJob::Kind::kDrainCheckpoint;
    job.boundary = max_ingested_ts_.load(std::memory_order_relaxed) + 1;
    control_submitted_.fetch_add(1, std::memory_order_relaxed);
    if (control_queue_.TryPush(std::move(job), 1)) {
      checkpoint_enqueued_ = true;
    } else {
      control_submitted_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  if (checkpoint_done_.load(std::memory_order_acquire)) {
    bool flushed;
    {
      std::lock_guard<std::mutex> lock(completions_mutex_);
      flushed = completions_.empty();
    }
    for (const auto& [serial, conn] : connections_) {
      flushed = flushed && conn->write_buffer.empty() && !conn->awaiting_completion;
    }
    if (flushed || deadline_hit) {
      drained_.store(true, std::memory_order_relaxed);
      JoinWorkers();
    }
    return;
  }
  if (deadline_hit) {
    // Checkpoint never completed inside the budget: give up losslessly for
    // acked-and-checkpointed data only (drained_ stays false).
    JoinWorkers();
  }
}

// --- Worker stages ---

void ServiceServer::ParseWorker() {
  ParseJob job;
  while (parse_queue_.Pop(&job)) {
    IngestJob out;
    out.conn_serial = job.conn_serial;
    out.received_ns = job.received_ns;
    const Status parsed =
        job.binary ? ParseWireBatch(BodySpan(job.body), &out.batch)
                   : ParseTextBatch(job.body, &out.batch);
    if (!parsed.ok()) {
      // Admitted but undecodable: the points never reach the database and
      // the client learns exactly why (still counted admitted — admission
      // priced the peek, not the decode).
      counters_.malformed->Increment();
      PostCompletion({job.conn_serial, 400, "text/plain", parsed.message()});
      parse_done_.fetch_add(1, std::memory_order_release);
      continue;
    }
    const uint64_t cost = out.batch.total_points;
    ingest_submitted_.fetch_add(1, std::memory_order_relaxed);
    if (!ingest_queue_.Push(std::move(out), cost)) {
      ingest_submitted_.fetch_sub(1, std::memory_order_relaxed);
      PostCompletion({job.conn_serial, 503, "application/json",
                      "{\"error\":\"shutting down\"}"});
    }
    parse_done_.fetch_add(1, std::memory_order_release);
  }
}

void ServiceServer::IngestWorker() {
  WriteBatch batch(db_);
  struct PendingAck {
    uint64_t conn_serial;
    uint32_t points;
    uint64_t received_ns;
  };
  std::vector<PendingAck> pending;
  uint64_t staged = 0;

  const auto flush = [&] {
    if (pending.empty()) {
      return;
    }
    {
      std::lock_guard<std::mutex> lock(db_phase_mutex_);
      batch.Commit();
    }
    counters_.commits->Increment();
    // Ack-after-commit: the 200 exists only once the points are applied, so
    // a drain that waits for acked work to finish can checkpoint losslessly.
    const uint64_t now = NowNanos();
    uint64_t flushed_points = 0;
    for (const PendingAck& ack : pending) {
      counters_.acked_points->Add(ack.points);
      flushed_points += ack.points;
      if (now > ack.received_ns) {
        ingest_latency_ns_->Record(now - ack.received_ns);
      }
      PostCompletion({ack.conn_serial, 200, "application/json",
                      "{\"status\":\"ok\",\"points\":" + std::to_string(ack.points) + "}"});
      ingest_done_.fetch_add(1, std::memory_order_release);
    }
    pending.clear();
    staged = 0;
    if (options_.seal_every_points > 0) {
      const uint64_t total =
          points_since_seal_.fetch_add(flushed_points, std::memory_order_relaxed) +
          flushed_points;
      if (total >= options_.seal_every_points) {
        points_since_seal_.store(0, std::memory_order_relaxed);
        ControlJob job;
        job.kind = ControlJob::Kind::kSeal;
        job.boundary = max_ingested_ts_.load(std::memory_order_relaxed) + 1;
        control_submitted_.fetch_add(1, std::memory_order_relaxed);
        if (!control_queue_.TryPush(std::move(job), 1)) {
          // Control plane busy: drop the mark; a later flush re-triggers.
          control_submitted_.fetch_sub(1, std::memory_order_relaxed);
        }
      }
    }
  };

  IngestJob job;
  for (;;) {
    if (!ingest_queue_.TryPop(&job)) {
      // Queue idle: commit whatever is staged so acks never wait on a quiet
      // wire, then block for the next batch.
      flush();
      if (!ingest_queue_.Pop(&job)) {
        break;
      }
    }
    TimePoint batch_max = 0;
    uint32_t points = 0;
    for (const WireSeries& series : job.batch.series) {
      const InternedMetricId id = db_->Intern(series.id);
      for (size_t i = 0; i < series.timestamps.size(); ++i) {
        batch.Add(id, series.timestamps[i], series.values[i]);
        batch_max = std::max(batch_max, series.timestamps[i]);
      }
      points += static_cast<uint32_t>(series.timestamps.size());
    }
    TimePoint seen = max_ingested_ts_.load(std::memory_order_relaxed);
    while (batch_max > seen &&
           !max_ingested_ts_.compare_exchange_weak(seen, batch_max,
                                                   std::memory_order_relaxed)) {
    }
    staged += points;
    pending.push_back({job.conn_serial, points, job.received_ns});
    if (staged >= options_.flush_points) {
      flush();
    }
  }
  flush();
}

void ServiceServer::ControlWorker() {
  ControlJob job;
  while (control_queue_.Pop(&job)) {
    switch (job.kind) {
      case ControlJob::Kind::kSeal: {
        {
          std::lock_guard<std::mutex> lock(db_phase_mutex_);
          db_->SealBefore(job.boundary);
          db_->SyncDurable();
        }
        counters_.seals->Increment();
        if (job.conn_serial != 0) {
          PostCompletion({job.conn_serial, 200, "application/json",
                          "{\"sealed_before\":" + std::to_string(job.boundary) + "}"});
        }
        break;
      }
      case ControlJob::Kind::kRun: {
        std::string body;
        {
          std::lock_guard<std::mutex> lock(db_phase_mutex_);
          for (const Regression& regression : pipeline_->RunAt(job.service, job.as_of)) {
            body += ToJsonLine(regression);
            body += '\n';
          }
        }
        PostCompletion({job.conn_serial, 200, "application/x-ndjson", std::move(body)});
        break;
      }
      case ControlJob::Kind::kQuarantine: {
        std::string body;
        {
          std::lock_guard<std::mutex> lock(db_phase_mutex_);
          body = RenderQuarantine(pipeline_->quarantine_report(), /*max_rows=*/200);
        }
        PostCompletion({job.conn_serial, 200, "text/plain", std::move(body)});
        break;
      }
      case ControlJob::Kind::kDrainCheckpoint: {
        {
          std::lock_guard<std::mutex> lock(db_phase_mutex_);
          db_->SealBefore(job.boundary);
          db_->SyncDurable();
        }
        counters_.seals->Increment();
        checkpoint_done_.store(true, std::memory_order_release);
        break;
      }
    }
    control_done_.fetch_add(1, std::memory_order_release);
  }
}

// --- Introspection ---

ServiceServer::Stats ServiceServer::stats() const {
  const Counters& c = counters_;
  Stats s;
  s.offered_requests = c.offered_requests->value();
  s.admitted_requests = c.admitted_requests->value();
  s.admitted_points = c.admitted_points->value();
  s.acked_points = c.acked_points->value();
  s.shed_admission = c.shed_admission->value();
  s.shed_backpressure = c.shed_backpressure->value();
  s.shed_drain = c.shed_drain->value();
  s.malformed = c.malformed->value();
  s.evicted_slow_clients = c.evicted_slow_clients->value();
  s.refused_connections = c.refused_connections->value();
  s.commits = c.commits->value();
  s.seals = c.seals->value();
  s.parse_queue_peak_points = parse_queue_.max_cost_observed();
  s.ingest_queue_peak_points = ingest_queue_.max_cost_observed();
  return s;
}

std::string ServiceServer::HealthJson() const {
  std::string out = "{\"status\":\"";
  out += draining_.load(std::memory_order_relaxed) ? "draining" : "ok";
  out += "\",\"degraded\":";
  out += db_->durable_degraded() ? "true" : "false";
  out += ",\"connections\":" + std::to_string(connections_.size());
  out += ",\"acked_points\":" + std::to_string(counters_.acked_points->value());
  out += "}";
  return out;
}

std::string ServiceServer::StatsJson() const {
  const Stats s = stats();
  std::string out = "{";
  const auto field = [&out](std::string_view name, uint64_t value, bool last = false) {
    out += "\"";
    out += name;
    out += "\":" + std::to_string(value);
    if (!last) {
      out += ",";
    }
  };
  field("offered_requests", s.offered_requests);
  field("admitted_requests", s.admitted_requests);
  field("admitted_points", s.admitted_points);
  field("acked_points", s.acked_points);
  field("shed_admission", s.shed_admission);
  field("shed_backpressure", s.shed_backpressure);
  field("shed_drain", s.shed_drain);
  field("malformed", s.malformed);
  field("evicted_slow_clients", s.evicted_slow_clients);
  field("refused_connections", s.refused_connections);
  field("commits", s.commits);
  field("seals", s.seals);
  field("parse_queue_points", parse_queue_.cost());
  field("ingest_queue_points", ingest_queue_.cost());
  field("parse_queue_peak_points", s.parse_queue_peak_points);
  field("ingest_queue_peak_points", s.ingest_queue_peak_points, /*last=*/true);
  out += "}";
  return out;
}

std::string ServiceServer::ConfigJson() const {
  std::string out = "{";
  out += "\"admit_points_per_sec\":" + std::to_string(options_.admit_points_per_sec);
  out += ",\"admit_burst_points\":" + std::to_string(bucket_.burst());
  out += ",\"parse_high_watermark_points\":" +
         std::to_string(options_.parse_high_watermark_points);
  out += ",\"parse_low_watermark_points\":" +
         std::to_string(options_.parse_low_watermark_points);
  out += ",\"ingest_queue_points\":" + std::to_string(options_.ingest_queue_points);
  out += ",\"parse_threads\":" + std::to_string(options_.parse_threads);
  out += ",\"flush_points\":" + std::to_string(options_.flush_points);
  out += ",\"seal_every_points\":" + std::to_string(options_.seal_every_points);
  out += ",\"request_timeout_ms\":" + std::to_string(options_.request_timeout_ms);
  out += ",\"drain_deadline_ms\":" + std::to_string(options_.drain_deadline_ms);
  out += ",\"max_body_bytes\":" + std::to_string(options_.max_body_bytes);
  out += ",\"max_connections\":" + std::to_string(options_.max_connections);
  out += "}";
  return out;
}

}  // namespace fbdetect
