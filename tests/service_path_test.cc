// End-to-end tests for the overload-safe service mode (DESIGN.md §16).
//
// Units first — the coupling pieces the server's robustness contract rests
// on (BoundedQueue cost accounting, TokenBucket admission, the incremental
// HTTP parser, the wire codecs, the load generators) — then in-process
// integration: a real ServiceServer on an ephemeral port, driven over real
// sockets by HttpClient, asserting
//   * ack-after-commit ingest for both wire forms,
//   * exact shed accounting (offered == admitted + shed) under a 4x slam,
//   * bounded queue depth regardless of offered load,
//   * /run output byte-identical to an offline pipeline over the same
//     admitted bodies, at scan_threads 1/2/8,
//   * drain-under-load losslessness across a durable reopen: every acked
//     point survives, by construction of the drain checkpoint.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/sim_time.h"
#include "src/common/status.h"
#include "src/core/pipeline.h"
#include "src/fleet/events.h"
#include "src/fleet/service.h"
#include "src/report/report.h"
#include "src/service/admission.h"
#include "src/service/bounded_queue.h"
#include "src/service/client.h"
#include "src/service/http.h"
#include "src/service/server.h"
#include "src/service/wire.h"
#include "src/service/workload.h"
#include "src/tsdb/database.h"
#include "tests/wire_workload.h"

namespace fbdetect {
namespace {

std::string MakeTempDir(const std::string& tag) {
  std::string templ = "/tmp/fbd_service_" + tag + "_XXXXXX";
  char* made = ::mkdtemp(templ.data());
  EXPECT_NE(made, nullptr);
  return templ;
}

void RemoveTree(const std::string& path) {
  const std::string command = "rm -rf '" + path + "'";
  [[maybe_unused]] const int rc = std::system(command.c_str());
}

struct ScopedDir {
  explicit ScopedDir(const std::string& tag) : path(MakeTempDir(tag)) {}
  ~ScopedDir() { RemoveTree(path); }
  std::string path;
};

// ---------------------------------------------------------------------------
// BoundedQueue: the cost-accounted coupling element between stages.
// ---------------------------------------------------------------------------

TEST(BoundedQueueTest, TryPushRespectsCostCapacity) {
  BoundedQueue<int> queue(100);
  EXPECT_TRUE(queue.TryPush(1, 60));
  EXPECT_TRUE(queue.TryPush(2, 40));  // Exactly full.
  EXPECT_FALSE(queue.TryPush(3, 1));  // Over by one point.
  EXPECT_EQ(queue.cost(), 100u);

  int out = 0;
  ASSERT_TRUE(queue.TryPop(&out));
  EXPECT_EQ(out, 1);
  EXPECT_EQ(queue.cost(), 40u);
  EXPECT_TRUE(queue.TryPush(3, 60));  // Fits again.
}

TEST(BoundedQueueTest, OversizedItemTransitsEmptyQueue) {
  BoundedQueue<int> queue(10);
  // An item larger than the whole capacity must still transit when the
  // queue is empty, or it could never be processed at all.
  EXPECT_TRUE(queue.TryPush(1, 1000));
  EXPECT_FALSE(queue.TryPush(2, 1));  // But nothing rides behind it.
  int out = 0;
  ASSERT_TRUE(queue.TryPop(&out));
  EXPECT_TRUE(queue.TryPush(2, 1));
}

TEST(BoundedQueueTest, PushBlocksUntilConsumerMakesRoom) {
  BoundedQueue<int> queue(10);
  ASSERT_TRUE(queue.TryPush(1, 10));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(queue.Push(2, 10));  // Blocks: queue is at capacity.
    pushed.store(true);
  });
  // The producer cannot complete until we pop; give it a moment to park.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  int out = 0;
  ASSERT_TRUE(queue.Pop(&out));
  producer.join();
  EXPECT_TRUE(pushed.load());
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 2);
}

TEST(BoundedQueueTest, CloseDrainsRemainingItemsThenStops) {
  BoundedQueue<int> queue(100);
  ASSERT_TRUE(queue.TryPush(7, 1));
  ASSERT_TRUE(queue.TryPush(8, 1));
  queue.Close();
  EXPECT_FALSE(queue.TryPush(9, 1));  // Producers rejected after close.
  EXPECT_FALSE(queue.Push(9, 1));
  int out = 0;
  EXPECT_TRUE(queue.Pop(&out));  // Consumers still drain what is queued.
  EXPECT_EQ(out, 7);
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 8);
  EXPECT_FALSE(queue.Pop(&out));  // Closed and empty: clean shutdown signal.
}

TEST(BoundedQueueTest, MaxCostObservedTracksHighWater) {
  BoundedQueue<int> queue(100);
  ASSERT_TRUE(queue.TryPush(1, 30));
  ASSERT_TRUE(queue.TryPush(2, 50));  // Peak: 80.
  int out = 0;
  ASSERT_TRUE(queue.TryPop(&out));
  ASSERT_TRUE(queue.TryPop(&out));
  ASSERT_TRUE(queue.TryPush(3, 10));
  EXPECT_EQ(queue.max_cost_observed(), 80u);
  EXPECT_EQ(queue.cost(), 10u);
}

// ---------------------------------------------------------------------------
// TokenBucket: points-denominated admission with a caller-supplied clock.
// ---------------------------------------------------------------------------

constexpr uint64_t kSecond = 1'000'000'000ull;

TEST(TokenBucketTest, DebitsAndRefillsAgainstCallerClock) {
  TokenBucket bucket(/*rate=*/1000, /*burst=*/1000);
  EXPECT_TRUE(bucket.Admit(600, kSecond));
  EXPECT_TRUE(bucket.Admit(400, kSecond));  // Bucket now empty.
  EXPECT_FALSE(bucket.Admit(1, kSecond));
  // Half a second refills half the rate.
  EXPECT_TRUE(bucket.Admit(500, kSecond + kSecond / 2));
  EXPECT_FALSE(bucket.Admit(1, kSecond + kSecond / 2));
}

TEST(TokenBucketTest, BurstCapsAccumulation) {
  TokenBucket bucket(/*rate=*/1000, /*burst=*/100);
  EXPECT_TRUE(bucket.Admit(100, kSecond));
  // An hour idle refills only to the burst depth, never beyond.
  EXPECT_FALSE(bucket.Admit(101, 3600 * kSecond));
  EXPECT_TRUE(bucket.Admit(100, 3600 * kSecond));
}

TEST(TokenBucketTest, RefundRestoresUnusedDebit) {
  TokenBucket bucket(/*rate=*/1000, /*burst=*/1000);
  EXPECT_TRUE(bucket.Admit(1000, kSecond));
  EXPECT_FALSE(bucket.Admit(1000, kSecond));
  // The request was shed downstream (full parse queue): the debit returns.
  bucket.Refund(1000);
  EXPECT_TRUE(bucket.Admit(1000, kSecond));
  // Refund clamps at burst — it cannot mint tokens.
  bucket.Refund(50'000);
  EXPECT_FALSE(bucket.Admit(1001, kSecond));
}

TEST(TokenBucketTest, ZeroRateAdmitsEverything) {
  TokenBucket bucket(/*rate=*/0, /*burst=*/0);
  EXPECT_TRUE(bucket.Admit(1ull << 40, kSecond));
  EXPECT_TRUE(bucket.Admit(1ull << 40, kSecond));
}

// ---------------------------------------------------------------------------
// HttpParser: incremental parse, pipelining, and hardened failure statuses.
// ---------------------------------------------------------------------------

TEST(HttpParserTest, ByteAtATimeRequestParses) {
  const std::string raw =
      "POST /ingest?x=1 HTTP/1.1\r\nHost: h\r\nContent-Type: text/plain\r\n"
      "Content-Length: 5\r\n\r\nhello";
  HttpParser parser;
  HttpParser::Result result = HttpParser::Result::kNeedMore;
  for (size_t i = 0; i < raw.size(); ++i) {
    result = parser.Feed(raw.data() + i, 1);
    if (i + 1 < raw.size()) {
      ASSERT_EQ(result, HttpParser::Result::kNeedMore) << "at byte " << i;
    }
  }
  ASSERT_EQ(result, HttpParser::Result::kComplete);
  EXPECT_EQ(parser.request().method, "POST");
  EXPECT_EQ(parser.request().target, "/ingest?x=1");
  EXPECT_EQ(parser.request().body, "hello");
  EXPECT_EQ(parser.request().Header("content-type"), "text/plain");
  EXPECT_EQ(HttpPath(parser.request().target), "/ingest");
  EXPECT_EQ(HttpQueryParam(parser.request().target, "x"), "1");
  EXPECT_EQ(HttpQueryParam(parser.request().target, "missing"), "");
}

TEST(HttpParserTest, PipelinedRequestsCarryAcrossReset) {
  const std::string two =
      "GET /a HTTP/1.1\r\n\r\n"
      "POST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nok";
  HttpParser parser;
  ASSERT_EQ(parser.Feed(two.data(), two.size()), HttpParser::Result::kComplete);
  EXPECT_EQ(parser.request().target, "/a");
  parser.Reset();
  // The second request was already buffered; Continue() parses it without
  // any new bytes from the socket.
  ASSERT_EQ(parser.Continue(), HttpParser::Result::kComplete);
  EXPECT_EQ(parser.request().target, "/b");
  EXPECT_EQ(parser.request().body, "ok");
  EXPECT_EQ(parser.buffered_bytes(), 0u);
}

TEST(HttpParserTest, HardenedFailureStatuses) {
  struct Case {
    const char* raw;
    int status;
  };
  const Case cases[] = {
      {"GET /x HTTP/2\r\n\r\n", 505},
      {"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501},
      {"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 400},
      {"bogus-line-without-spaces\r\n\r\n", 400},
      {"GET relative-target HTTP/1.1\r\n\r\n", 400},
  };
  for (const Case& c : cases) {
    HttpParser parser;
    EXPECT_EQ(parser.Feed(c.raw, std::strlen(c.raw)), HttpParser::Result::kError);
    EXPECT_EQ(parser.error_status(), c.status) << c.raw;
  }

  HttpParser::Limits tiny;
  tiny.max_header_bytes = 64;
  tiny.max_body_bytes = 8;
  HttpParser small(tiny);
  const std::string big_headers =
      "GET / HTTP/1.1\r\nX-Pad: " + std::string(256, 'a') + "\r\n\r\n";
  EXPECT_EQ(small.Feed(big_headers.data(), big_headers.size()),
            HttpParser::Result::kError);
  EXPECT_EQ(small.error_status(), 431);

  HttpParser small_body(tiny);
  const std::string big_body = "POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n";
  EXPECT_EQ(small_body.Feed(big_body.data(), big_body.size()),
            HttpParser::Result::kError);
  EXPECT_EQ(small_body.error_status(), 413);
}

// ---------------------------------------------------------------------------
// Wire codecs: round trips, the admission peek, and strict rejection.
// ---------------------------------------------------------------------------

WireBatch SampleBatch() {
  WireBatch batch;
  WireSeries a;
  a.id = {"svc", MetricKind::kGcpu, "sub/alpha", "feature/g1"};
  a.timestamps = {600, 1200, 1800};
  a.values = {0.25, 0.5, 0.75};
  WireSeries b;
  b.id = {"svc", MetricKind::kLatency, "endpoint0", ""};
  b.timestamps = {600};
  b.values = {42.0};
  batch.total_points = 4;
  batch.series = {std::move(a), std::move(b)};
  return batch;
}

TEST(WireFormatTest, BinaryRoundTripAndPeekAgree) {
  const WireBatch batch = SampleBatch();
  std::string encoded;
  EncodeWireBatch(batch, encoded);

  const std::span<const uint8_t> span(
      reinterpret_cast<const uint8_t*>(encoded.data()), encoded.size());
  uint32_t peeked = 0;
  ASSERT_TRUE(PeekWirePoints(span, &peeked).ok());
  EXPECT_EQ(peeked, 4u);

  WireBatch decoded;
  ASSERT_TRUE(ParseWireBatch(span, &decoded).ok());
  ASSERT_EQ(decoded.series.size(), 2u);
  EXPECT_EQ(decoded.total_points, 4u);
  EXPECT_EQ(decoded.series[0].id.service, "svc");
  EXPECT_EQ(decoded.series[0].id.kind, MetricKind::kGcpu);
  EXPECT_EQ(decoded.series[0].id.entity, "sub/alpha");
  EXPECT_EQ(decoded.series[0].id.metadata, "feature/g1");
  EXPECT_EQ(decoded.series[0].timestamps, (std::vector<TimePoint>{600, 1200, 1800}));
  EXPECT_EQ(decoded.series[0].values, (std::vector<double>{0.25, 0.5, 0.75}));
  EXPECT_EQ(decoded.series[1].id.entity, "endpoint0");
}

TEST(WireFormatTest, RejectsMalformedBinary) {
  std::string encoded;
  EncodeWireBatch(SampleBatch(), encoded);
  const auto as_span = [](const std::string& s) {
    return std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(s.data()),
                                    s.size());
  };
  WireBatch out;
  uint32_t peeked = 0;

  // Truncated header: even the peek must refuse.
  std::string short_header = encoded.substr(0, kWireHeaderBytes - 1);
  EXPECT_FALSE(PeekWirePoints(as_span(short_header), &peeked).ok());
  EXPECT_FALSE(ParseWireBatch(as_span(short_header), &out).ok());

  // Bad magic.
  std::string bad_magic = encoded;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(PeekWirePoints(as_span(bad_magic), &peeked).ok());
  EXPECT_FALSE(ParseWireBatch(as_span(bad_magic), &out).ok());

  // Truncated payload: header parses, body must not.
  std::string truncated = encoded.substr(0, encoded.size() - 7);
  EXPECT_FALSE(ParseWireBatch(as_span(truncated), &out).ok());

  // Trailing garbage after a complete batch.
  std::string padded = encoded + "x";
  EXPECT_FALSE(ParseWireBatch(as_span(padded), &out).ok());

  // Header total_points disagreeing with the per-series sum.
  std::string lying = encoded;
  uint32_t wrong = 5;
  std::memcpy(lying.data() + 4, &wrong, sizeof(wrong));
  EXPECT_FALSE(ParseWireBatch(as_span(lying), &out).ok());

  // Absurd declared count: rejected before any allocation of that size.
  std::string huge = encoded;
  const uint32_t absurd = kWireMaxPoints + 1;
  std::memcpy(huge.data() + 4, &absurd, sizeof(absurd));
  EXPECT_FALSE(PeekWirePoints(as_span(huge), &peeked).ok());
}

TEST(WireFormatTest, TextRoundTripMatchesCount) {
  const std::string body =
      "# comment\n"
      "\n"
      "svc|gcpu|sub/alpha|feature/g1|600|0.25\n"
      "svc|gcpu|sub/alpha|feature/g1|1200|0.5\n"
      "svc|latency|endpoint0||600|42\n";
  EXPECT_EQ(CountTextPoints(body), 3u);
  WireBatch batch;
  ASSERT_TRUE(ParseTextBatch(body, &batch).ok());
  EXPECT_EQ(batch.total_points, 3u);
  ASSERT_EQ(batch.series.size(), 2u);
  EXPECT_EQ(batch.series[0].id.metadata, "feature/g1");
  EXPECT_EQ(batch.series[1].values[0], 42.0);

  WireBatch bad;
  EXPECT_FALSE(ParseTextBatch("svc|no_such_kind|e||1|2\n", &bad).ok());
  EXPECT_FALSE(ParseTextBatch("svc|gcpu|e||not_a_ts|2\n", &bad).ok());
  EXPECT_FALSE(ParseTextBatch("too|few\n", &bad).ok());
}

// ---------------------------------------------------------------------------
// Load generators.
// ---------------------------------------------------------------------------

TEST(WorkloadTest, SyntheticBodiesParseAndAdvance) {
  SyntheticWorkload workload("svc", /*series_count=*/4, /*points_per_series=*/8,
                             /*start=*/1000, /*step=*/60);
  std::string body;
  const uint32_t points = workload.NextBody(body);
  EXPECT_EQ(points, 32u);
  EXPECT_EQ(workload.points_per_batch(), 32u);

  WireBatch batch;
  ASSERT_TRUE(ParseWireBatch(
                  std::span<const uint8_t>(
                      reinterpret_cast<const uint8_t*>(body.data()), body.size()),
                  &batch)
                  .ok());
  EXPECT_EQ(batch.total_points, 32u);
  ASSERT_EQ(batch.series.size(), 4u);
  EXPECT_EQ(batch.series[0].timestamps.front(), 1000);

  // The next batch starts where the previous ended: timestamps never repeat.
  std::string body2;
  workload.NextBody(body2);
  WireBatch batch2;
  ASSERT_TRUE(ParseWireBatch(
                  std::span<const uint8_t>(
                      reinterpret_cast<const uint8_t*>(body2.data()), body2.size()),
                  &batch2)
                  .ok());
  EXPECT_EQ(batch2.series[0].timestamps.front(), 1000 + 8 * 60);
}

TEST(WorkloadTest, WireWorkloadDeterministicAcrossInstances) {
  WireWorkloadOptions options;
  options.service.name = "svc";
  options.service.num_servers = 10;
  options.service.call_graph.num_subroutines = 8;
  options.service.seed = 11;
  WireWorkload one(options);
  WireWorkload two(options);
  for (int tick = 0; tick < 3; ++tick) {
    uint32_t points_one = 0;
    uint32_t points_two = 0;
    const std::string body_one = one.NextBody(&points_one);
    const std::string body_two = two.NextBody(&points_two);
    EXPECT_EQ(body_one, body_two) << "tick " << tick;
    EXPECT_EQ(points_one, points_two);
    EXPECT_GT(points_one, 0u);
  }
}

// ---------------------------------------------------------------------------
// In-process server harness.
// ---------------------------------------------------------------------------

struct ServerHarness {
  ServerHarness(TsdbOptions tsdb, PipelineOptions pipeline_options,
                ServiceOptions service)
      : db(std::make_unique<TimeSeriesDatabase>(tsdb)),
        pipeline(std::make_unique<Pipeline>(db.get(), nullptr, nullptr,
                                            pipeline_options)),
        server(std::make_unique<ServiceServer>(db.get(), pipeline.get(),
                                               std::move(service))) {
    const Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started.message();
    loop = std::thread([this] { drained = server->Run(); });
  }

  ~ServerHarness() {
    if (loop.joinable()) {
      server->Stop();
      loop.join();
    }
  }

  // Graceful SIGTERM path (BeginDrain is exactly what the signal handler
  // calls); returns Run()'s verdict.
  bool Drain() {
    server->BeginDrain();
    loop.join();
    return drained;
  }

  void StopHard() {
    server->Stop();
    loop.join();
  }

  uint16_t port() const { return server->port(); }

  std::unique_ptr<TimeSeriesDatabase> db;
  std::unique_ptr<Pipeline> pipeline;
  std::unique_ptr<ServiceServer> server;
  std::thread loop;
  bool drained = false;
};

PipelineOptions ServicePipelineOptions(int scan_threads = 1) {
  PipelineOptions options;
  options.detection.threshold = 0.0005;
  options.detection.windows.historical = Days(1);
  options.detection.windows.analysis = Hours(4);
  options.detection.windows.extended = Hours(2);
  options.scan_threads = scan_threads;
  options.telemetry.enabled = true;
  return options;
}

Status PostIngest(HttpClient& client, const std::string& body, bool binary,
                  HttpResponse* response) {
  return client.Post("/ingest",
                     binary ? "application/x-fbdetect" : "text/plain", body,
                     response);
}

// ---------------------------------------------------------------------------
// Basic end-to-end: both wire forms ack after commit; stats & immediate
// endpoints tell the truth.
// ---------------------------------------------------------------------------

TEST(ServiceServerTest, TextAndBinaryIngestEndToEnd) {
  ServerHarness harness(TsdbOptions{}, ServicePipelineOptions(), ServiceOptions{});
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.port()).ok());

  HttpResponse response;
  ASSERT_TRUE(PostIngest(client,
                         "svc|gcpu|sub/alpha||600|0.25\n"
                         "svc|gcpu|sub/alpha||1200|0.5\n",
                         /*binary=*/false, &response)
                  .ok());
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "{\"status\":\"ok\",\"points\":2}");

  std::string encoded;
  EncodeWireBatch(SampleBatch(), encoded);
  ASSERT_TRUE(PostIngest(client, encoded, /*binary=*/true, &response).ok());
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "{\"status\":\"ok\",\"points\":4}");

  // An empty batch is a valid no-op, acked immediately.
  ASSERT_TRUE(PostIngest(client, "# nothing\n", /*binary=*/false, &response).ok());
  EXPECT_EQ(response.status, 200);

  // A garbage binary body is admitted (the header peek is all the front door
  // sees) and then rejected by the parse stage with 400.
  std::string garbage = encoded;
  garbage.resize(garbage.size() - 3);
  ASSERT_TRUE(PostIngest(client, garbage, /*binary=*/true, &response).ok());
  EXPECT_EQ(response.status, 400);

  // The ack already implies the commit happened; stats must agree exactly.
  ASSERT_TRUE(client.Get("/stats", &response).ok());
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"offered_requests\":4"), std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("\"admitted_requests\":4"), std::string::npos);
  EXPECT_NE(response.body.find("\"acked_points\":6"), std::string::npos);
  EXPECT_NE(response.body.find("\"malformed\":1"), std::string::npos);
  EXPECT_NE(response.body.find("\"shed_admission\":0"), std::string::npos);

  const ServiceServer::Stats stats = harness.server->stats();
  EXPECT_EQ(stats.offered_requests, stats.admitted_requests + stats.shed());
  EXPECT_EQ(stats.acked_points, 6u);
  EXPECT_GE(stats.commits, 1u);

  harness.StopHard();
  // The committed points are really in the database.
  const std::optional<TimeSeries> series =
      harness.db->Find(MetricId{"svc", MetricKind::kGcpu, "sub/alpha", ""});
  ASSERT_TRUE(series.has_value());
  EXPECT_EQ(series->size(), 2u);
}

TEST(ServiceServerTest, ImmediateEndpointsAndErrors) {
  ServiceOptions service;
  service.admit_points_per_sec = 12345;
  ServerHarness harness(TsdbOptions{}, ServicePipelineOptions(), service);
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.port()).ok());

  HttpResponse response;
  ASSERT_TRUE(client.Get("/healthz", &response).ok());
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"status\":\"ok\""), std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("\"degraded\":false"), std::string::npos);

  ASSERT_TRUE(client.Get("/config", &response).ok());
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("12345"), std::string::npos) << response.body;

  // Ingest one point so the telemetry mirrors have something to say.
  ASSERT_TRUE(PostIngest(client, "svc|gcpu|s||600|1\n", false, &response).ok());
  EXPECT_EQ(response.status, 200);

  ASSERT_TRUE(client.Get("/metrics", &response).ok());
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("service_offered_requests"), std::string::npos)
      << response.body.substr(0, 512);

  ASSERT_TRUE(client.Get("/telemetry", &response).ok());
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("service.offered_requests"), std::string::npos);

  ASSERT_TRUE(client.Get("/quarantine", &response).ok());
  EXPECT_EQ(response.status, 200);

  ASSERT_TRUE(client.Get("/nothing_here", &response).ok());
  EXPECT_EQ(response.status, 404);

  // /run parameter validation.
  ASSERT_TRUE(client.Post("/run", "", "", &response).ok());
  EXPECT_EQ(response.status, 400);
  ASSERT_TRUE(client.Post("/run?service=svc&as_of=bogus", "", "", &response).ok());
  EXPECT_EQ(response.status, 400);
  ASSERT_TRUE(client.Post("/run?service=svc&as_of=600", "", "", &response).ok());
  EXPECT_EQ(response.status, 200);
}

// ---------------------------------------------------------------------------
// Slow-client defense: a stalled request is evicted at its deadline.
// ---------------------------------------------------------------------------

TEST(ServiceServerTest, SlowClientIsEvicted) {
  ServiceOptions service;
  service.request_timeout_ms = 100;
  ServerHarness harness(TsdbOptions{}, ServicePipelineOptions(), service);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(harness.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  // Half a request, then silence: the deadline starts at the first byte.
  const char partial[] = "POST /ingest HTTP/1.1\r\nContent-Le";
  ASSERT_GT(::send(fd, partial, sizeof(partial) - 1, 0), 0);

  // The server must close the connection; a healthy client on the side is
  // untouched.
  char byte = 0;
  ssize_t got = -1;
  for (int i = 0; i < 100; ++i) {
    got = ::recv(fd, &byte, 1, MSG_DONTWAIT);
    if (got == 0) {
      break;  // Orderly close from the server.
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(got, 0);
  ::close(fd);

  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.port()).ok());
  HttpResponse response;
  ASSERT_TRUE(client.Get("/healthz", &response).ok());
  EXPECT_EQ(response.status, 200);

  EXPECT_EQ(harness.server->stats().evicted_slow_clients, 1u);
}

// ---------------------------------------------------------------------------
// Connection cap: a connection past max_connections is closed at accept and
// counted; the connections already open keep being served.
// ---------------------------------------------------------------------------

TEST(ServiceServerTest, ConnectionsPastTheCapAreRefusedAndCounted) {
  ServiceOptions service;
  service.max_connections = 2;
  ServerHarness harness(TsdbOptions{}, ServicePipelineOptions(), service);

  // Each client is served once, so both are registered before the third
  // connects.
  HttpClient first;
  HttpClient second;
  HttpResponse response;
  for (HttpClient* client : {&first, &second}) {
    ASSERT_TRUE(client->Connect("127.0.0.1", harness.port()).ok());
    ASSERT_TRUE(client->Get("/healthz", &response).ok());
    EXPECT_EQ(response.status, 200);
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(harness.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  char byte = 0;
  ssize_t got = -1;
  for (int i = 0; i < 100; ++i) {
    got = ::recv(fd, &byte, 1, MSG_DONTWAIT);
    if (got == 0) {
      break;  // Orderly close from the server.
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(got, 0);
  ::close(fd);

  for (HttpClient* client : {&first, &second}) {
    ASSERT_TRUE(client->Get("/healthz", &response).ok());
    EXPECT_EQ(response.status, 200);
  }
  EXPECT_EQ(harness.server->stats().refused_connections, 1u);
  ASSERT_TRUE(first.Get("/stats", &response).ok());
  EXPECT_NE(response.body.find("\"refused_connections\":1"), std::string::npos)
      << response.body;
}

// ---------------------------------------------------------------------------
// Overload sweep: 0.5x / 1x / 4x the admission budget, at scan_threads
// 1 / 2 / 8. Conservation (offered == admitted + shed) must hold exactly;
// queue depth stays bounded; the 4x leg must actually shed.
// ---------------------------------------------------------------------------

struct OverloadLeg {
  uint64_t admit_rate;   // Points/sec; 0 = unlimited.
  uint64_t admit_burst;  // Bucket depth.
  bool expect_shed;
};

TEST(ServiceServerTest, OverloadSweepConservationAndQueueBounds) {
  constexpr int kSeriesCount = 128;
  constexpr int kPointsPerSeries = 32;  // 4096 points per batch.
  constexpr int kBatches = 200;
  constexpr uint64_t kBatchPoints = kSeriesCount * kPointsPerSeries;

  // 200 batches x 4096 pts = 819,200 points offered as fast as the loopback
  // allows. The 4x leg's bucket covers at most burst + rate * elapsed; even
  // a pathological 60s run admits < 310k points, so shedding is guaranteed.
  const OverloadLeg legs[] = {
      {0, 0, false},            // 0.5x-equivalent: unlimited, nothing sheds.
      {4'000'000, 819'200, false},  // 1x: the burst covers the whole offer.
      {5'000, 4'096, true},     // 4x+: the bucket cannot keep up.
  };

  for (const int scan_threads : {1, 2, 8}) {
    for (const OverloadLeg& leg : legs) {
      ServiceOptions service;
      service.admit_points_per_sec = leg.admit_rate;
      service.admit_burst_points = leg.admit_burst;
      service.parse_high_watermark_points = 4 * kBatchPoints;
      service.parse_low_watermark_points = kBatchPoints;
      service.ingest_queue_points = 2 * kBatchPoints;
      service.parse_threads = 2;
      service.flush_points = 8 * kBatchPoints;
      ServerHarness harness(TsdbOptions{}, ServicePipelineOptions(scan_threads),
                            service);

      SyntheticWorkload workload("svc", kSeriesCount, kPointsPerSeries,
                                 /*start=*/600, /*step=*/60);
      HttpClient client;
      ASSERT_TRUE(client.Connect("127.0.0.1", harness.port()).ok());
      uint64_t ok_responses = 0;
      uint64_t shed_responses = 0;
      uint64_t acked_points = 0;
      std::string body;
      for (int i = 0; i < kBatches; ++i) {
        const uint32_t points = workload.NextBody(body);
        HttpResponse response;
        ASSERT_TRUE(PostIngest(client, body, /*binary=*/true, &response).ok());
        if (response.status == 200) {
          ++ok_responses;
          acked_points += points;
        } else {
          ASSERT_TRUE(response.status == 429 || response.status == 503)
              << response.status;
          ++shed_responses;
        }
      }

      // A detection run against the live database must succeed mid-overload.
      HttpResponse run_response;
      ASSERT_TRUE(client.Post("/run?service=svc&as_of=600", "", "", &run_response)
                      .ok());
      EXPECT_EQ(run_response.status, 200);

      harness.StopHard();
      const ServiceServer::Stats stats = harness.server->stats();

      // Exact conservation: every offered request is accounted once.
      EXPECT_EQ(stats.offered_requests, static_cast<uint64_t>(kBatches));
      EXPECT_EQ(stats.offered_requests, stats.admitted_requests + stats.shed());
      EXPECT_EQ(stats.admitted_requests, ok_responses);
      EXPECT_EQ(stats.shed(), shed_responses);
      // Ack-after-commit: what the client saw acked is what was committed.
      EXPECT_EQ(stats.acked_points, acked_points);
      EXPECT_EQ(stats.admitted_points, acked_points);

      // Queue depth stayed within the configured bounds throughout.
      EXPECT_LE(stats.parse_queue_peak_points,
                service.parse_high_watermark_points);
      EXPECT_LE(stats.ingest_queue_peak_points,
                std::max<uint64_t>(service.ingest_queue_points, kBatchPoints));

      if (leg.expect_shed) {
        EXPECT_GT(stats.shed(), 0u)
            << "4x leg failed to shed (scan_threads=" << scan_threads << ")";
        EXPECT_GT(stats.admitted_requests, 0u);  // Burst admits at least one.
      } else {
        EXPECT_EQ(stats.shed(), 0u)
            << "under-capacity leg shed load (scan_threads=" << scan_threads
            << ")";
      }
    }
  }
}

// Backpressure (503 via the parse-queue watermark) needs concurrent
// producers: each connection has at most one request in flight, so eight
// hammering clients against a two-batch watermark overrun the queue.
TEST(ServiceServerTest, WatermarkBackpressureSheds503) {
  constexpr int kSeriesCount = 128;
  constexpr int kPointsPerSeries = 128;  // 16384 points per batch.
  constexpr uint64_t kBatchPoints = kSeriesCount * kPointsPerSeries;
  constexpr int kClients = 8;
  constexpr int kBatchesPerClient = 100;
  constexpr int kMaxRounds = 5;

  ServiceOptions service;
  service.parse_high_watermark_points = 2 * kBatchPoints;
  service.parse_low_watermark_points = kBatchPoints;
  service.ingest_queue_points = kBatchPoints;
  service.parse_threads = 1;
  service.flush_points = 64 * kBatchPoints;  // Stage, don't commit per batch.
  ServerHarness harness(TsdbOptions{}, ServicePipelineOptions(), service);

  uint64_t total_ok = 0;
  uint64_t total_shed = 0;
  std::atomic<uint64_t> transport_errors{0};
  for (int round = 0; round < kMaxRounds; ++round) {
    std::atomic<uint64_t> ok{0};
    std::atomic<uint64_t> shed{0};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c, round] {
        SyntheticWorkload workload(
            "svc" + std::to_string(c), kSeriesCount, kPointsPerSeries,
            /*start=*/600 + round * 1'000'000, /*step=*/60);
        HttpClient client;
        if (!client.Connect("127.0.0.1", harness.port()).ok()) {
          transport_errors.fetch_add(1);
          return;
        }
        std::string body;
        for (int i = 0; i < kBatchesPerClient; ++i) {
          workload.NextBody(body);
          HttpResponse response;
          if (!PostIngest(client, body, /*binary=*/true, &response).ok()) {
            transport_errors.fetch_add(1);
            return;
          }
          if (response.status == 200) {
            ok.fetch_add(1);
          } else {
            shed.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& t : clients) {
      t.join();
    }
    total_ok += ok.load();
    total_shed += shed.load();
    if (shed.load() > 0) {
      break;
    }
  }

  harness.StopHard();
  const ServiceServer::Stats stats = harness.server->stats();
  EXPECT_EQ(transport_errors.load(), 0u);
  EXPECT_EQ(stats.offered_requests, total_ok + total_shed);
  EXPECT_EQ(stats.offered_requests, stats.admitted_requests + stats.shed());
  EXPECT_EQ(stats.admitted_requests, total_ok);
  EXPECT_GT(stats.shed_backpressure, 0u);
  EXPECT_EQ(stats.shed_admission, 0u);  // No token bucket in this leg.
  // The watermark bound held even with eight producers slamming.
  EXPECT_LE(stats.parse_queue_peak_points, service.parse_high_watermark_points);
}

// ---------------------------------------------------------------------------
// Detection byte-identity: /run over live-ingested data must equal an
// offline pipeline fed the same admitted bodies, at scan_threads 1/2/8,
// including with fault-injected (duplicated / reordered / garbage) wire
// data riding along.
// ---------------------------------------------------------------------------

ServiceConfig DetectableServiceConfig() {
  ServiceConfig config;
  config.name = "svc";
  config.num_servers = 20;
  config.call_graph.num_subroutines = 16;
  config.sampling.samples_per_bucket = 500000;
  config.sampling.bucket_width = Minutes(10);
  config.tick = Minutes(10);
  config.num_endpoints = 2;
  config.num_seasonal_subroutines = 0;
  config.seasonal_load_amplitude = 0.0;
  config.emit_process_cpu = false;
  config.seed = 7;
  return config;
}

// A leaf subroutine with enough (but not dominating) gCPU share to carry a
// detectable step regression.
std::string DetectableLeaf(const ServiceConfig& config) {
  const ServiceSimulator probe(config);
  const CallGraph& graph = probe.graph();
  const std::vector<double> reach = graph.ReachProbabilities();
  for (size_t i = 0; i < graph.node_count(); ++i) {
    const NodeId id = static_cast<NodeId>(i);
    if (graph.edges(id).empty() && reach[i] >= 0.003 && reach[i] <= 0.2) {
      return graph.node(id).name;
    }
  }
  return graph.node(0).name;
}

std::string Serialize(const std::vector<Regression>& reports) {
  std::string out;
  for (const Regression& report : reports) {
    out += ToJsonLine(report);
    out += '\n';
  }
  return out;
}

// Builds the wire stream once: fleet ticks with an injected step regression
// at 36h, fault-injected so duplicates/reorders/garbage ride along.
std::vector<std::string> DetectableBodies(TimePoint end) {
  WireWorkloadOptions options;
  options.service = DetectableServiceConfig();
  options.inject_faults = true;
  options.start = 0;

  InjectedEvent event;
  event.kind = EventKind::kStepRegression;
  event.service = options.service.name;
  event.subroutine = DetectableLeaf(options.service);
  event.start = Hours(36);
  event.magnitude = 0.5;

  WireWorkload workload(options);
  workload.ScheduleEvent(event);
  std::vector<std::string> bodies;
  while (workload.next_tick() <= end) {
    bodies.push_back(workload.NextBody());
  }
  return bodies;
}

// The injected step lands at 36h; with a 4h analysis window these as-of
// points straddle it, so at least one run must fire.
const std::vector<TimePoint> kRunAsOfs = {Hours(37), Hours(39)};

std::string OfflineRunOutput(const std::vector<std::string>& bodies,
                             const std::string& service_name,
                             const std::vector<TimePoint>& as_ofs) {
  TimeSeriesDatabase db((TsdbOptions()));
  WriteBatch batch(&db);
  for (const std::string& body : bodies) {
    WireBatch wire;
    const Status parsed = ParseWireBatch(
        std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(body.data()),
                                 body.size()),
        &wire);
    EXPECT_TRUE(parsed.ok());
    for (const WireSeries& series : wire.series) {
      const InternedMetricId id = db.Intern(series.id);
      for (size_t i = 0; i < series.timestamps.size(); ++i) {
        batch.Add(id, series.timestamps[i], series.values[i]);
      }
    }
    batch.Commit();
  }
  Pipeline pipeline(&db, nullptr, nullptr, ServicePipelineOptions(1));
  std::string out;
  for (const TimePoint as_of : as_ofs) {
    out += Serialize(pipeline.RunAt(service_name, as_of));
  }
  return out;
}

TEST(ServiceServerTest, RunOutputByteIdenticalToOfflineAcrossScanThreads) {
  const std::vector<std::string> bodies = DetectableBodies(Hours(39));
  ASSERT_GT(bodies.size(), 200u);

  const std::string offline = OfflineRunOutput(bodies, "svc", kRunAsOfs);
  ASSERT_FALSE(offline.empty())
      << "the injected regression produced no offline detections";

  for (const int scan_threads : {1, 2, 8}) {
    ServiceOptions service;
    service.flush_points = 16 * 1024;
    ServerHarness harness(TsdbOptions{}, ServicePipelineOptions(scan_threads),
                          service);
    HttpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", harness.port()).ok());
    for (const std::string& body : bodies) {
      HttpResponse response;
      ASSERT_TRUE(PostIngest(client, body, /*binary=*/true, &response).ok());
      ASSERT_EQ(response.status, 200);  // Unlimited admission: all land.
    }
    std::string live;
    for (const TimePoint as_of : kRunAsOfs) {
      HttpResponse run_response;
      ASSERT_TRUE(client
                      .Post("/run?service=svc&as_of=" + std::to_string(as_of),
                            "", "", &run_response)
                      .ok());
      ASSERT_EQ(run_response.status, 200);
      live += run_response.body;
    }
    EXPECT_EQ(live, offline) << "scan_threads=" << scan_threads;
    harness.StopHard();
  }
}

// Same identity under overload: only the ACKED prefix of the stream exists
// server-side, and the offline pipeline fed exactly those bodies agrees.
TEST(ServiceServerTest, RunOutputMatchesOfflineOnAckedSubsetUnderOverload) {
  const std::vector<std::string> bodies = DetectableBodies(Hours(39));

  // Size the bucket from the stream itself: the burst covers any single
  // batch (so admission is possible), while the refill rate cannot cover the
  // whole offer even on an absurdly slow box — the acked subset is a strict,
  // shed-dependent selection of the stream.
  uint64_t max_body_points = 0;
  uint64_t total_points = 0;
  for (const std::string& body : bodies) {
    uint32_t points = 0;
    ASSERT_TRUE(PeekWirePoints(
                    std::span<const uint8_t>(
                        reinterpret_cast<const uint8_t*>(body.data()),
                        body.size()),
                    &points)
                    .ok());
    max_body_points = std::max<uint64_t>(max_body_points, points);
    total_points += points;
  }
  ServiceOptions service;
  service.admit_points_per_sec =
      std::max<uint64_t>(1, total_points / 120);  // ~2 min to refill it all.
  service.admit_burst_points = 2 * max_body_points;
  service.flush_points = 16 * 1024;
  ServerHarness harness(TsdbOptions{}, ServicePipelineOptions(1), service);
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.port()).ok());

  std::vector<std::string> acked;
  uint64_t shed = 0;
  for (const std::string& body : bodies) {
    HttpResponse response;
    ASSERT_TRUE(PostIngest(client, body, /*binary=*/true, &response).ok());
    if (response.status == 200) {
      acked.push_back(body);
    } else {
      ASSERT_EQ(response.status, 429);
      ++shed;
    }
  }
  ASSERT_GT(shed, 0u) << "overload leg admitted everything";
  ASSERT_GT(acked.size(), 0u);

  std::string live;
  for (const TimePoint as_of : kRunAsOfs) {
    HttpResponse run_response;
    ASSERT_TRUE(client
                    .Post("/run?service=svc&as_of=" + std::to_string(as_of), "",
                          "", &run_response)
                    .ok());
    ASSERT_EQ(run_response.status, 200);
    live += run_response.body;
  }
  EXPECT_EQ(live, OfflineRunOutput(acked, "svc", kRunAsOfs));

  const ServiceServer::Stats stats = harness.server->stats();
  EXPECT_EQ(stats.offered_requests, stats.admitted_requests + stats.shed());
  EXPECT_EQ(stats.admitted_requests, acked.size());
}

// ---------------------------------------------------------------------------
// Graceful drain: under live load, BeginDrain (the SIGTERM path) stops
// admission, flushes every admitted batch, checkpoints, and exits clean;
// a durable reopen holds every acked point.
// ---------------------------------------------------------------------------

TEST(ServiceServerTest, DrainUnderLoadIsLosslessAcrossDurableReopen) {
  const ScopedDir dir("drain");
  constexpr int kSeriesCount = 32;
  constexpr int kPointsPerSeries = 16;

  TsdbOptions tsdb;
  tsdb.durable.directory = dir.path;
  tsdb.durable.fsync = false;

  ServiceOptions service;
  service.flush_points = 8 * 1024;  // Several batches stage per commit.
  service.drain_deadline_ms = 30'000;

  uint64_t client_acked_points = 0;
  uint64_t drain_rejected = 0;
  {
    ServerHarness harness(tsdb, ServicePipelineOptions(), service);

    std::atomic<bool> drain_now{false};
    std::atomic<uint64_t> acked_points{0};
    std::atomic<uint64_t> rejected{0};
    std::thread sender([&] {
      SyntheticWorkload workload("svc", kSeriesCount, kPointsPerSeries,
                                 /*start=*/600, /*step=*/60);
      HttpClient client;
      if (!client.Connect("127.0.0.1", harness.port()).ok()) {
        return;
      }
      std::string body;
      for (int i = 0; i < 2000; ++i) {
        const uint32_t points = workload.NextBody(body);
        HttpResponse response;
        if (!PostIngest(client, body, /*binary=*/true, &response).ok()) {
          return;  // Connection torn down post-drain: expected.
        }
        if (response.status == 200) {
          acked_points.fetch_add(points);
        } else {
          rejected.fetch_add(1);
          if (response.status == 503) {
            return;  // Draining: stop offering.
          }
        }
        if (i == 50) {
          drain_now.store(true);  // Signal mid-stream, acks in flight.
        }
      }
      drain_now.store(true);
    });

    while (!drain_now.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(harness.Drain()) << "drain missed its deadline";
    sender.join();

    const ServiceServer::Stats stats = harness.server->stats();
    client_acked_points = acked_points.load();
    drain_rejected = rejected.load();
    // Every point the client saw acked was committed AND checkpointed:
    // drain acks only after commit, checkpoints only after the stages idle.
    EXPECT_EQ(stats.acked_points, client_acked_points);
    EXPECT_EQ(stats.offered_requests, stats.admitted_requests + stats.shed());
    EXPECT_GE(stats.seals, 1u);  // The drain checkpoint ran.
    EXPECT_GT(client_acked_points, 0u);
  }

  // Cold reopen from the durable directory: the acked points are all there.
  TimeSeriesDatabase reopened(tsdb);
  uint64_t recovered_points = 0;
  for (int s = 0; s < kSeriesCount; ++s) {
    const MetricId id{"svc", MetricKind::kApplication,
                      "synthetic_" + std::to_string(s), ""};
    const std::optional<TimeSeries> series = reopened.Find(id);
    if (series.has_value()) {
      recovered_points += series->size();
    }
  }
  EXPECT_EQ(recovered_points, client_acked_points)
      << "acked points lost (or invented) across the drain + reopen "
      << "(rejected in-flight: " << drain_rejected << ")";
}

// The /drain admin endpoint triggers the same path remotely: 202, then the
// event loop exits with a clean verdict and new ingest sheds with 503.
TEST(ServiceServerTest, DrainEndpointStopsAdmissionAndExitsClean) {
  ServerHarness harness(TsdbOptions{}, ServicePipelineOptions(), ServiceOptions{});
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.port()).ok());

  HttpResponse response;
  ASSERT_TRUE(PostIngest(client, "svc|gcpu|s||600|1\n", false, &response).ok());
  ASSERT_EQ(response.status, 200);

  ASSERT_TRUE(client.Post("/drain", "", "", &response).ok());
  EXPECT_EQ(response.status, 202);

  // Ingest offered after the drain began is shed (or the socket is already
  // closed by the exiting loop — both are valid shutdown observations).
  const Status late = PostIngest(client, "svc|gcpu|s||660|1\n", false, &response);
  if (late.ok()) {
    EXPECT_EQ(response.status, 503);
  }

  harness.loop.join();
  EXPECT_TRUE(harness.drained);
  EXPECT_TRUE(harness.server->drained());
}

// /seal checkpoints on demand; the boundary lands in the durable tier.
TEST(ServiceServerTest, SealEndpointCheckpointsDurableTier) {
  const ScopedDir dir("seal");
  TsdbOptions tsdb;
  tsdb.durable.directory = dir.path;
  tsdb.durable.fsync = false;

  uint64_t acked = 0;
  {
    ServerHarness harness(tsdb, ServicePipelineOptions(), ServiceOptions{});
    HttpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", harness.port()).ok());
    HttpResponse response;
    for (int i = 0; i < 8; ++i) {
      const std::string line =
          "svc|gcpu|s||" + std::to_string(600 + 60 * i) + "|1.5\n";
      ASSERT_TRUE(PostIngest(client, line, false, &response).ok());
      ASSERT_EQ(response.status, 200);
      ++acked;
    }
    ASSERT_TRUE(client.Post("/seal", "", "", &response).ok());
    EXPECT_EQ(response.status, 200);
    EXPECT_NE(response.body.find("\"sealed_before\""), std::string::npos)
        << response.body;
    EXPECT_GE(harness.server->stats().seals, 1u);
    harness.StopHard();
  }

  TimeSeriesDatabase reopened(tsdb);
  const std::optional<TimeSeries> series =
      reopened.Find(MetricId{"svc", MetricKind::kGcpu, "s", ""});
  ASSERT_TRUE(series.has_value());
  EXPECT_EQ(series->size(), acked);
}

// The database sets its durable totals itself at the end of each write-phase
// call, so an ingest-only service (no /run) still reports them.
TEST(ServiceServerTest, DurableTotalsAreCurrentWithoutRun) {
  const ScopedDir dir("totals");
  TsdbOptions tsdb;
  tsdb.durable.directory = dir.path;
  tsdb.durable.fsync = false;
  tsdb.durable.group_commit_bytes = 256;  // Ingest crosses it many times.

  ServerHarness harness(tsdb, ServicePipelineOptions(), ServiceOptions{});
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.port()).ok());
  HttpResponse response;
  for (int i = 0; i < 32; ++i) {
    std::string body;
    for (int s = 0; s < 4; ++s) {
      body += "svc|gcpu|s" + std::to_string(s) + "||" + std::to_string(600 + 60 * i) + "|" +
              std::to_string(1.0 + 0.01 * i) + "\n";
    }
    ASSERT_TRUE(PostIngest(client, body, false, &response).ok());
    ASSERT_EQ(response.status, 200);
  }
  ASSERT_TRUE(client.Post("/seal", "", "", &response).ok());
  ASSERT_EQ(response.status, 200);
  ASSERT_TRUE(client.Get("/telemetry", &response).ok());
  ASSERT_EQ(response.status, 200);
  const std::string telemetry = response.body;
  harness.StopHard();

  const auto counter = [&telemetry](const std::string& name) -> uint64_t {
    const std::string key = "\"" + name + "\": ";
    const size_t at = telemetry.find(key);
    if (at == std::string::npos) {
      ADD_FAILURE() << name << " missing from /telemetry:\n" << telemetry;
      return 0;
    }
    return std::strtoull(telemetry.c_str() + at + key.size(), nullptr, 10);
  };
  const TimeSeriesDatabase::DurableStats durable = harness.db->durable_stats();
  EXPECT_GT(durable.group_commits, durable.checkpoint_rewrites);  // Write-path commits.
  EXPECT_GT(durable.checkpoint_rewrites, 0u);
  EXPECT_GT(durable.chunks_persisted, 0u);
  EXPECT_EQ(counter("tsdb.durable.group_commits"), durable.group_commits);
  EXPECT_EQ(counter("tsdb.durable.checkpoint_rewrites"), durable.checkpoint_rewrites);
  EXPECT_EQ(counter("tsdb.durable.chunks_persisted"), durable.chunks_persisted);
  EXPECT_EQ(counter("service.seals"), 1u);
}

}  // namespace
}  // namespace fbdetect
