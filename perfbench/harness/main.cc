// perfbench: end-to-end benchmark of the FBDetect service over loopback HTTP.
//
//   perfbench --workload detect|ingest|live --seed N --seconds S --trace 0|1
//             --out DIR --scratch DIR [--sha SHA] [--tiny]
//
// Prints every end-to-end metric of the workload with its unit and sample
// count, then, as the last line, one JSON object: the benchmark-wide
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Exits 1 when an output check fails or the run cannot complete.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench/bench_util.h"
#include "harness/json.h"
#include "harness/workloads.h"

namespace {

std::string Number(double value) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

// The repository benches' hardware object plus the CPU model.
std::string HardwareJson() {
  std::string json = fbdetect::HardwareJsonValue();
  json.pop_back();
  return json + ", \"cpu\": \"" + perfbench::JsonEscape(CpuModel()) + "\"}";
}

std::string MetricsJson(const std::vector<perfbench::Metric>& metrics, bool with_samples) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const perfbench::Metric& m = metrics[i];
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + Number(m.value) +
           ", \"unit\": \"" + m.unit + "\"";
    if (with_samples) {
      out += ", \"samples\": " + std::to_string(m.samples);
    }
    out += "}";
  }
  return out + "}";
}

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload detect|ingest|live --seed N --seconds S "
               "--trace 0|1 --out DIR --scratch DIR [--sha SHA] [--tiny]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage();
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = next();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(next().c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = next() == "1";
    } else if (arg == "--out") {
      options.out_dir = next();
    } else if (arg == "--scratch") {
      options.scratch = next();
    } else if (arg == "--sha") {
      sha = next();
    } else if (arg == "--tiny") {
      options.tiny = true;
    } else {
      Usage();
    }
  }
  if (!perfbench::IsWorkload(options.workload) || options.seconds <= 0 ||
      options.out_dir.empty() || options.scratch.empty()) {
    Usage();
  }

  perfbench::Outcome outcome;
  try {
    std::filesystem::create_directories(options.out_dir);
    outcome = perfbench::RunWorkload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(), e.what());
    return 1;
  }

  const bool correct = outcome.failures.empty();
  std::printf("perfbench %s seed=%llu seconds=%s trace=%d inputs=%s sha=%s\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              Number(options.seconds).c_str(), options.trace ? 1 : 0,
              outcome.input_digest.c_str(), sha.c_str());
  std::printf("hardware %s\n", HardwareJson().c_str());
  for (const perfbench::Metric& m : outcome.end_to_end) {
    std::printf("  %-28s %14.4f %-10s n=%zu\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.samples);
  }
  if (options.trace) {
    std::printf("per-layer\n");
    for (const perfbench::Metric& m : outcome.summary) {
      std::printf("  %-36s %14.4f %-10s n=%zu\n", m.name.c_str(), m.value, m.unit.c_str(),
                  m.samples);
    }
  }
  for (const std::string& failure : outcome.failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }

  std::ofstream result(options.out_dir + "/result.json");
  result << "{\"workload\": \"" << options.workload << "\", \"seed\": " << options.seed
         << ", \"seconds\": " << Number(options.seconds)
         << ", \"trace\": " << (options.trace ? 1 : 0) << ", \"sha\": \""
         << perfbench::JsonEscape(sha) << "\", \"hardware\": " << HardwareJson()
         << ", \"input_digest\": \"" << outcome.input_digest
         << "\", \"correct\": " << (correct ? "true" : "false")
         << ", \"end_to_end\": " << MetricsJson(outcome.end_to_end, true)
         << ", \"summary\": " << MetricsJson(outcome.summary, true) << "}\n";

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              MetricsJson(outcome.summary, false).c_str());
  return correct ? 0 : 1;
}
