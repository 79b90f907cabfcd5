// The three workloads and the measured run around them: repeated set-up,
// the timed phase, output checks, labelled scoring, and (traced run) the
// scrape, span dump and per-layer replay.
#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;   // detect | ingest | live
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;      // Self-test sizing: tiny fleets, one set-up.
  std::string out_dir;    // Result files.
  std::string scratch;    // Parent of the temporary durable directories.
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  size_t samples = 0;
};

struct Outcome {
  std::string input_digest;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // Failed output checks; empty = correct.
  // Every end-to-end metric the workload defines, by its own name, with
  // sample counts (the human-readable report).
  std::vector<Metric> end_to_end;
  // What the last output line carries: the benchmark-wide end-to-end
  // metrics (untraced run) or the per-layer metrics (traced run).
  std::vector<Metric> summary;
};

bool IsWorkload(const std::string& name);
Outcome RunWorkload(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
