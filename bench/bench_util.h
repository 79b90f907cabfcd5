// Shared helpers for the reproduction harnesses: aligned table printing and
// simple sparkline rendering so each bench prints rows comparable to the
// paper's tables/figures.
#ifndef FBDETECT_BENCH_BENCH_UTIL_H_
#define FBDETECT_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <fstream>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/stats/descriptive.h"

namespace fbdetect {

// Hardware/build metadata as a single-line JSON object. Every recorded
// number depends on the core count and the compiler, so results from
// different machines are only comparable when these fields match.
inline std::string HardwareJsonValue() {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), "{\"cores\": %u, \"compiler\": \"%s\"}",
                std::thread::hardware_concurrency(),
#if defined(__clang__)
                "clang " __clang_version__
#else
                "gcc " __VERSION__
#endif
  );
  return std::string(buffer);
}

// Emits the "hardware" metadata member into a BENCH_*.json stream (no
// trailing comma or newline).
inline void WriteHardwareJson(std::FILE* json, const char* indent = "  ") {
  std::fprintf(json, "%s\"hardware\": %s", indent, HardwareJsonValue().c_str());
}

// BENCH_scaling.json collects the multicore rig's results across several
// binaries: each --threads-sweep bench owns its own section. The file keeps
// exactly one top-level member per line ('  "name": <single-line value>'),
// which lets this read-modify-write helper re-emit the other binaries'
// sections verbatim. "hardware" is refreshed on every update.
inline void UpdateBenchScalingJson(const std::string& section, const std::string& value) {
  const char* path = "BENCH_scaling.json";
  std::vector<std::pair<std::string, std::string>> sections;
  sections.emplace_back("hardware", HardwareJsonValue());
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.compare(0, 3, "  \"") != 0) {
        continue;  // Braces or foreign formatting.
      }
      const size_t name_end = line.find('"', 3);
      size_t value_begin = line.find(": ", name_end == std::string::npos ? 3 : name_end);
      if (name_end == std::string::npos || value_begin == std::string::npos) {
        continue;
      }
      value_begin += 2;
      std::string name = line.substr(3, name_end - 3);
      std::string existing = line.substr(value_begin);
      if (!existing.empty() && existing.back() == ',') {
        existing.pop_back();
      }
      if (name == "hardware" || name == section) {
        continue;  // Superseded below.
      }
      sections.emplace_back(std::move(name), std::move(existing));
    }
  }
  sections.emplace_back(section, value);
  std::ofstream out(path, std::ios::trunc);
  out << "{\n";
  for (size_t i = 0; i < sections.size(); ++i) {
    out << "  \"" << sections[i].first << "\": " << sections[i].second
        << (i + 1 < sections.size() ? "," : "") << "\n";
  }
  out << "}\n";
  std::printf("\nupdated BENCH_scaling.json section \"%s\"\n", section.c_str());
}

// Formats a --threads-sweep curve as a single-line JSON array for
// UpdateBenchScalingJson: per-thread-count wall time plus speedup vs 1 thread.
inline std::string ThreadsCurveJson(const std::vector<int>& threads,
                                    const std::vector<double>& ms) {
  std::string curve = "[";
  char buffer[128];
  for (size_t i = 0; i < threads.size(); ++i) {
    std::snprintf(buffer, sizeof(buffer),
                  "%s{\"threads\": %d, \"ms\": %.2f, \"speedup_vs_1\": %.3f}",
                  i == 0 ? "" : ", ", threads[i], ms[i], ms[0] / ms[i]);
    curve += buffer;
  }
  curve += "]";
  return curve;
}

// Prints a row of columns padded to the given widths.
inline void PrintRow(const std::vector<std::string>& cells, const std::vector<int>& widths) {
  for (size_t i = 0; i < cells.size(); ++i) {
    const int width = i < widths.size() ? widths[i] : 12;
    std::printf("%-*s", width, cells[i].c_str());
  }
  std::printf("\n");
}

inline std::string FormatDouble(double value, const char* format = "%.4f") {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), format, value);
  return std::string(buffer);
}

inline std::string FormatPercent(double value, int decimals = 3) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f%%", decimals, value * 100.0);
  return std::string(buffer);
}

// Renders a series as a one-line unicode sparkline (8 levels), so the shapes
// of Figure-style results are visible in terminal output.
inline std::string Sparkline(std::span<const double> values, size_t max_width = 100) {
  static const char* kLevels[] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  if (values.empty()) {
    return "";
  }
  const double lo = Min(values);
  const double hi = Max(values);
  const size_t stride = values.size() > max_width ? values.size() / max_width : 1;
  std::string line;
  for (size_t i = 0; i < values.size(); i += stride) {
    // Average the stride bucket for stability.
    double sum = 0.0;
    size_t count = 0;
    for (size_t j = i; j < values.size() && j < i + stride; ++j) {
      sum += values[j];
      ++count;
    }
    const double v = sum / static_cast<double>(count);
    int level = 0;
    if (hi > lo) {
      level = static_cast<int>((v - lo) / (hi - lo) * 7.999);
    }
    line += kLevels[level];
  }
  return line;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

}  // namespace fbdetect

#endif  // FBDETECT_BENCH_BENCH_UTIL_H_
