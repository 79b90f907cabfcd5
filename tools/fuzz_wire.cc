// Fuzz target for the service's request surface (DESIGN.md §16): the
// incremental HTTP/1.1 parser and both wire-batch decoders. These are the
// bytes an arbitrary network peer controls, so for ANY input the parsers
// must return kError/Status — never an abort, out-of-bounds read, oversized
// allocation, or hang — and the invariants the service relies on must hold:
// a peeked point count matches the parsed batch, and a parsed batch's
// per-series sizes are consistent.
//
// Input layout: [0] mode selector, [1..] payload.
//   mode % 3 == 0: payload fed byte-at-a-time through HttpParser (the
//                  incremental path the epoll loop exercises);
//   mode % 3 == 1: payload through ParseWireBatch (+ PeekWirePoints);
//   mode % 3 == 2: payload through ParseTextBatch (+ CountTextPoints).
//
// Two build modes, mirroring tools/fuzz_gorilla.cc:
//   * FBD_USE_LIBFUZZER: LLVMFuzzerTestOneInput for clang -fsanitize=fuzzer
//     (enable with -DFBD_LIBFUZZER=ON).
//   * default: standalone smoke binary for the chaos CI job — random
//     garbage plus valid requests/batches with byte flips, truncations, and
//     splice points, which reach much deeper parser states than noise:
//     `fuzz_wire [seconds] [seed]`.
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/common/status.h"
#include "src/service/http.h"
#include "src/service/wire.h"

namespace {

void FuzzHttp(const uint8_t* data, size_t size) {
  fbdetect::HttpParser::Limits limits;
  limits.max_header_bytes = 4 * 1024;
  limits.max_body_bytes = 64 * 1024;
  fbdetect::HttpParser parser(limits);
  // Byte-at-a-time feeding exercises every incremental resume point.
  fbdetect::HttpParser::Result result = fbdetect::HttpParser::Result::kNeedMore;
  for (size_t i = 0; i < size; ++i) {
    const char byte = static_cast<char>(data[i]);
    result = parser.Feed(&byte, 1);
    if (result == fbdetect::HttpParser::Result::kError) {
      FBD_CHECK(parser.error_status() >= 400);
      return;
    }
    if (result == fbdetect::HttpParser::Result::kComplete) {
      const fbdetect::HttpRequest& request = parser.request();
      FBD_CHECK(!request.method.empty());
      FBD_CHECK(!request.target.empty() && request.target[0] == '/');
      // Re-arm on the same connection: pipelined bytes must carry over.
      parser.Reset();
      result = parser.Continue();
      if (result == fbdetect::HttpParser::Result::kError) {
        return;
      }
    }
    FBD_CHECK(parser.buffered_bytes() <=
              limits.max_header_bytes + limits.max_body_bytes + 4096);
  }
}

void FuzzBinary(const uint8_t* data, size_t size) {
  const std::span<const uint8_t> span(data, size);
  uint32_t peeked = 0;
  const fbdetect::Status peek = fbdetect::PeekWirePoints(span, &peeked);
  fbdetect::WireBatch batch;
  const fbdetect::Status parsed = fbdetect::ParseWireBatch(span, &batch);
  if (parsed.ok()) {
    // A parse can only succeed when the peek did, with matching counts.
    FBD_CHECK(peek.ok());
    FBD_CHECK(batch.total_points == peeked);
    size_t sum = 0;
    for (const fbdetect::WireSeries& series : batch.series) {
      FBD_CHECK(series.timestamps.size() == series.values.size());
      FBD_CHECK(!series.timestamps.empty());
      sum += series.timestamps.size();
    }
    FBD_CHECK(sum == batch.total_points);
  }
}

void FuzzText(const uint8_t* data, size_t size) {
  const std::string_view body(reinterpret_cast<const char*>(data), size);
  const uint32_t counted = fbdetect::CountTextPoints(body);
  fbdetect::WireBatch batch;
  const fbdetect::Status parsed = fbdetect::ParseTextBatch(body, &batch);
  if (parsed.ok()) {
    FBD_CHECK(batch.total_points == counted);
  }
}

void FuzzOne(const uint8_t* data, size_t size) {
  if (size < 1) {
    return;
  }
  switch (data[0] % 3) {
    case 0:
      FuzzHttp(data + 1, size - 1);
      break;
    case 1:
      FuzzBinary(data + 1, size - 1);
      break;
    default:
      FuzzText(data + 1, size - 1);
      break;
  }
}

}  // namespace

#ifdef FBD_USE_LIBFUZZER

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  FuzzOne(data, size);
  return 0;
}

#else  // Standalone smoke harness.

#include <chrono>
#include <cmath>
#include <cstdio>

#include "src/common/random.h"
#include "tools/parse_flag.h"

namespace {

// A well-formed ingest request (headers + binary body) to mutate from.
std::string SeedRequest(fbdetect::Rng& rng) {
  fbdetect::WireBatch batch;
  const size_t series_count = 1 + rng.NextUint64(4);
  for (size_t s = 0; s < series_count; ++s) {
    fbdetect::WireSeries series;
    series.id.service = "svc" + std::to_string(rng.NextUint64(3));
    series.id.kind = static_cast<fbdetect::MetricKind>(
        rng.NextUint64(static_cast<uint64_t>(fbdetect::MetricKind::kApplication) + 1));
    series.id.entity = std::string("e").append(std::to_string(rng.NextUint64(100)));
    const size_t points = 1 + rng.NextUint64(16);
    int64_t t = static_cast<int64_t>(rng.NextUint64(100000));
    for (size_t i = 0; i < points; ++i) {
      series.timestamps.push_back(t += 1 + static_cast<int64_t>(rng.NextUint64(60)));
      series.values.push_back(rng.Uniform(0.0, 1e6));
    }
    batch.total_points += points;
    batch.series.push_back(std::move(series));
  }
  std::string body;
  fbdetect::EncodeWireBatch(batch, body);
  std::string request = "POST /ingest HTTP/1.1\r\nHost: x\r\n";
  request += "Content-Type: application/x-fbdetect\r\nContent-Length: ";
  request += std::to_string(body.size());
  request += "\r\n\r\n";
  request += body;
  return request;
}

std::string SeedText(fbdetect::Rng& rng) {
  std::string body = "# fuzz seed\n";
  const size_t lines = 1 + rng.NextUint64(12);
  for (size_t i = 0; i < lines; ++i) {
    body += "svc|latency|endpoint" + std::to_string(rng.NextUint64(8)) + "||" +
            std::to_string(rng.NextUint64(100000)) + "|" +
            std::to_string(rng.Uniform(0.0, 100.0)) + "\n";
  }
  return body;
}

}  // namespace

int main(int argc, char** argv) {
  double seconds = 10.0;
  uint64_t seed = 1;
  if ((argc > 1 && !fbdetect::ParseFlag("seconds", argv[1], &seconds)) ||
      (argc > 2 && !fbdetect::ParseFlag("seed", argv[2], &seed))) {
    return 1;
  }
  if (!std::isfinite(seconds) || seconds <= 0.0) {
    std::fprintf(stderr, "bad value for seconds: %s\n", argv[1]);
    return 1;
  }
  fbdetect::Rng rng(seed);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(seconds);
  uint64_t iterations = 0;
  std::vector<uint8_t> input;
  while (std::chrono::steady_clock::now() < deadline) {
    for (int batch = 0; batch < 256; ++batch) {
      ++iterations;
      input.clear();
      input.push_back(static_cast<uint8_t>(rng.NextUint64(256)));
      if (rng.NextBool(0.4)) {
        // Mode 1: random garbage.
        const size_t size = rng.NextUint64(512);
        for (size_t i = 0; i < size; ++i) {
          input.push_back(static_cast<uint8_t>(rng.NextUint64(256)));
        }
      } else {
        // Mode 2: a valid request/batch/text body, then byte flips,
        // truncation, or a splice of two seeds.
        std::string seed_bytes;
        switch (input[0] % 3) {
          case 0:
            seed_bytes = SeedRequest(rng);
            if (rng.NextBool(0.3)) {
              seed_bytes += SeedRequest(rng);  // Pipelined pair.
            }
            break;
          case 1:
            seed_bytes = SeedRequest(rng);
            seed_bytes.erase(0, seed_bytes.find("\r\n\r\n") + 4);  // Body only.
            break;
          default:
            seed_bytes = SeedText(rng);
            break;
        }
        const size_t flips = rng.NextUint64(6);
        for (size_t f = 0; f < flips && !seed_bytes.empty(); ++f) {
          seed_bytes[rng.NextUint64(seed_bytes.size())] ^=
              static_cast<char>(1u << rng.NextUint64(8));
        }
        if (rng.NextBool(0.3) && !seed_bytes.empty()) {
          seed_bytes.resize(1 + rng.NextUint64(seed_bytes.size()));
        }
        input.insert(input.end(), seed_bytes.begin(), seed_bytes.end());
      }
      FuzzOne(input.data(), input.size());
    }
  }
  if (iterations == 0) {
    std::fprintf(stderr, "fuzz_wire: no input ran in %g s\n", seconds);
    return 1;
  }
  std::printf("fuzz_wire: %llu inputs, 0 crashes\n",
              static_cast<unsigned long long>(iterations));
  return 0;
}

#endif  // FBD_USE_LIBFUZZER
