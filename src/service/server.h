// Overload-safe service mode: a long-lived epoll server owning a Pipeline +
// durable TimeSeriesDatabase (DESIGN.md §16).
//
// Stage layout (each arrow a BoundedQueue with cost = points):
//
//   accept/epoll ──peek──> [parse queue] ──> parse workers ──> [ingest queue]
//        │ shed 429/503                             │ errors        │
//        │<────────── completions (eventfd) ────────┴── acks ── ingest worker
//                                                                  │ flush
//   control worker <── [control queue] <── seal marks ─────────────┘
//     (RunAt / seal / drain checkpoint, under the db phase mutex)
//
// Robustness contract:
//  * The event-loop thread NEVER blocks on a queue: requests the parse queue
//    cannot take are shed with 503 (high/low watermark hysteresis), requests
//    the token bucket cannot cover are shed with 429, and during drain new
//    ingest gets 503 — all before the body is parsed, priced by the wire
//    header's total_points peek. offered == admitted + shed, exactly.
//  * Interior stages block (Push) — backpressure propagates upstream until
//    the front door sheds, so total queued memory is bounded by the two
//    queue capacities regardless of offered load.
//  * 200 is sent only AFTER the WriteBatch holding the request committed
//    (ack-after-commit): SIGTERM drain — stop accepting, flush both queues,
//    SealBefore(max_ts + 1) + SyncDurable, exit — therefore never loses an
//    acked point across a durable reopen.
//  * Readers (RunAt, quarantine) and the ingest committer share a db phase
//    mutex: the TSDB's single-writer-or-many-readers discipline holds with
//    live ingest, so /run output is byte-identical to an offline pipeline
//    over the same admitted batches.
#ifndef FBDETECT_SRC_SERVICE_SERVER_H_
#define FBDETECT_SRC_SERVICE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/core/pipeline.h"
#include "src/service/admission.h"
#include "src/service/bounded_queue.h"
#include "src/service/http.h"
#include "src/service/wire.h"
#include "src/tsdb/database.h"

namespace fbdetect {

struct ServiceOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; the bound port is port() after Start.

  // Admission: sustained points/sec (0 = unlimited) and bucket depth
  // (0 = one second's worth).
  uint64_t admit_points_per_sec = 0;
  uint64_t admit_burst_points = 0;

  // Parse-queue watermarks (points). Above high, ingest sheds 503 until the
  // queue drains below low. Capacity is the high watermark: the event loop
  // only ever TryPushes.
  uint64_t parse_high_watermark_points = 256 * 1024;
  uint64_t parse_low_watermark_points = 64 * 1024;
  // Ingest-queue capacity (points); parse workers block on it.
  uint64_t ingest_queue_points = 256 * 1024;

  int parse_threads = 2;
  // WriteBatch commit threshold; a drained queue also flushes, so acks never
  // wait on a quiet wire.
  uint64_t flush_points = 32 * 1024;
  // Enqueue a durable checkpoint (SealBefore) every N committed points;
  // 0 = only at drain.
  uint64_t seal_every_points = 0;

  // A connection must complete request + response inside this budget once
  // its first request byte arrives; violators are evicted (slow-client
  // defense). 0 disables.
  uint64_t request_timeout_ms = 10'000;
  uint64_t drain_deadline_ms = 30'000;

  size_t max_body_bytes = 8 * 1024 * 1024;
  size_t max_connections = 1024;
};

class ServiceServer {
 public:
  // `db` and `pipeline` must outlive the server; the pipeline must scan
  // `db`. The server registers service.* instruments in the pipeline's
  // telemetry registry.
  ServiceServer(TimeSeriesDatabase* db, Pipeline* pipeline, ServiceOptions options);
  ~ServiceServer();
  ServiceServer(const ServiceServer&) = delete;
  ServiceServer& operator=(const ServiceServer&) = delete;

  // Binds, listens, and spawns the worker threads. The event loop itself
  // runs on the caller's thread in Run().
  Status Start();

  // The event loop; returns after drain completes (BeginDrain) or Stop().
  // Exit value: true = drained cleanly within the deadline.
  bool Run();

  // Async-signal-safe drain trigger (one write to an eventfd) — call it
  // from the SIGTERM handler. Idempotent.
  void BeginDrain();

  // Hard stop for tests: unblocks Run without the checkpoint.
  void Stop();

  uint16_t port() const { return port_; }

  // Deterministic shed/admission accounting, readable while running: a
  // snapshot of the service.* counters plus the queues' high-water marks.
  struct Stats {
    uint64_t offered_requests = 0;    // Well-formed ingest requests seen.
    uint64_t admitted_requests = 0;
    uint64_t admitted_points = 0;
    uint64_t acked_points = 0;        // Points whose 200 was posted.
    uint64_t shed_admission = 0;      // 429: token bucket.
    uint64_t shed_backpressure = 0;   // 503: parse-queue watermark.
    uint64_t shed_drain = 0;          // 503: draining.
    uint64_t malformed = 0;           // 4xx before pricing.
    uint64_t evicted_slow_clients = 0;
    uint64_t refused_connections = 0;  // Closed at accept: over max_connections.
    uint64_t commits = 0;             // WriteBatch flushes.
    uint64_t seals = 0;               // Checkpoints (incl. drain's).
    uint64_t parse_queue_peak_points = 0;
    uint64_t ingest_queue_peak_points = 0;
    uint64_t shed() const { return shed_admission + shed_backpressure + shed_drain; }
  };
  Stats stats() const;

  bool drained() const { return drained_.load(std::memory_order_relaxed); }

 private:
  struct Connection;

  // A parsed-and-admitted ingest body on its way to the parse workers.
  struct ParseJob {
    uint64_t conn_serial = 0;
    std::string body;
    bool binary = true;
    uint32_t points = 0;
    uint64_t received_ns = 0;
  };
  // A decoded batch on its way to the ingest worker.
  struct IngestJob {
    uint64_t conn_serial = 0;
    WireBatch batch;
    uint64_t received_ns = 0;
  };
  // A response ready to be written by the event loop.
  struct Completion {
    uint64_t conn_serial = 0;
    int status = 200;
    std::string content_type = "application/json";
    std::string body;
  };
  struct ControlJob {
    enum class Kind { kSeal, kRun, kQuarantine, kDrainCheckpoint } kind = Kind::kSeal;
    uint64_t conn_serial = 0;
    TimePoint boundary = 0;
    std::string service;
    TimePoint as_of = 0;
  };

  void ParseWorker();
  void IngestWorker();
  void ControlWorker();

  // Event-loop internals.
  void AcceptReady(uint64_t now_ns);
  void ConnectionReadable(Connection& conn, uint64_t now_ns);
  void ConnectionWritable(Connection& conn);
  void HandleRequest(Connection& conn, uint64_t now_ns);
  void HandleIngest(Connection& conn, const HttpRequest& request, uint64_t now_ns);
  // Immediate (non-queued) endpoints; returns false when the target is
  // unknown.
  bool HandleImmediate(Connection& conn, const HttpRequest& request);
  void SendResponse(Connection& conn, int status, std::string_view content_type,
                    std::string_view body, const std::vector<std::string>& extra = {});
  void CloseConnection(Connection& conn);
  void PostCompletion(Completion completion);
  void DrainCompletions();
  void SweepTimeouts(uint64_t now_ns);
  void AdvanceDrain(uint64_t now_ns);
  void UpdateWatermark();
  void UpdateInterest(Connection& conn, uint32_t events);
  // Closes all queues and joins the worker threads. Idempotent.
  void JoinWorkers();
  std::string HealthJson() const;
  std::string StatsJson() const;
  std::string ConfigJson() const;

  TimeSeriesDatabase* db_;
  Pipeline* pipeline_;
  ServiceOptions options_;
  uint16_t port_ = 0;

  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  int wake_fd_ = -1;   // Completions ready.
  int drain_fd_ = -1;  // BeginDrain (signal-safe).

  TokenBucket bucket_;
  BoundedQueue<ParseJob> parse_queue_;
  BoundedQueue<IngestJob> ingest_queue_;
  BoundedQueue<ControlJob> control_queue_;

  std::vector<std::thread> parse_workers_;
  std::thread ingest_worker_;
  std::thread control_worker_;

  std::mutex completions_mutex_;
  std::vector<Completion> completions_;

  // Serializes the TSDB's writer phase (ingest commits, seals) against its
  // reader phase (RunAt, quarantine, durable stats) — the single-writer-or-
  // many-readers contract, enforced at service level.
  std::mutex db_phase_mutex_;

  // Connections keyed by a monotonically increasing serial (the epoll user
  // datum), never reused — a stale completion can never ack the wrong client
  // after fd reuse.
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> connections_;
  uint64_t next_conn_serial_ = 16;  // Low serials tag the listen/event fds.

  // Per-stage submitted/done counters; drain is complete exactly when every
  // stage has caught up (done == submitted) — no sleeps, no races.
  std::atomic<uint64_t> parse_submitted_{0}, parse_done_{0};
  std::atomic<uint64_t> ingest_submitted_{0}, ingest_done_{0};
  std::atomic<uint64_t> control_submitted_{0}, control_done_{0};
  std::atomic<bool> checkpoint_done_{false};
  bool checkpoint_enqueued_ = false;
  bool workers_joined_ = false;

  std::atomic<bool> draining_{false};
  std::atomic<bool> drained_{false};
  std::atomic<bool> stop_{false};
  bool accepting_ = true;
  bool backpressure_ = false;  // Watermark hysteresis, event-loop only.
  uint64_t drain_started_ns_ = 0;
  std::atomic<TimePoint> max_ingested_ts_{0};
  std::atomic<uint64_t> points_since_seal_{0};

  // Accounting (service.*, kRuntime), registered in the pipeline's registry.
  // The only store: stats(), /stats and /telemetry all read these.
  struct Counters {
    Counter* offered_requests = nullptr;
    Counter* admitted_requests = nullptr;
    Counter* admitted_points = nullptr;
    Counter* acked_points = nullptr;
    Counter* shed_admission = nullptr;
    Counter* shed_backpressure = nullptr;
    Counter* shed_drain = nullptr;
    Counter* malformed = nullptr;
    Counter* evicted_slow_clients = nullptr;
    Counter* refused_connections = nullptr;
    Counter* commits = nullptr;
    Counter* seals = nullptr;
    Counter* queued_points = nullptr;  // Gauge, Set by the event loop.
  } counters_;
  Histogram* ingest_latency_ns_ = nullptr;
};

}  // namespace fbdetect

#endif  // FBDETECT_SRC_SERVICE_SERVER_H_
