#include "src/report/report.h"

#include <cstdarg>
#include <cstdio>

#include "src/stats/descriptive.h"

namespace fbdetect {
namespace {

// Renders a value span as a one-line unicode sparkline.
std::string Sparkline(const std::vector<double>& values, size_t max_width) {
  static const char* kLevels[] = {"▁", "▂", "▃", "▄", "▅", "▆", "▇", "█"};
  if (values.empty()) {
    return "";
  }
  const double lo = Min(values);
  const double hi = Max(values);
  const size_t stride = values.size() > max_width ? values.size() / max_width : 1;
  std::string line;
  for (size_t i = 0; i < values.size(); i += stride) {
    double sum = 0.0;
    size_t count = 0;
    for (size_t j = i; j < values.size() && j < i + stride; ++j) {
      sum += values[j];
      ++count;
    }
    const double v = sum / static_cast<double>(count);
    const int level = hi > lo ? static_cast<int>((v - lo) / (hi - lo) * 7.999) : 0;
    line += kLevels[level];
  }
  return line;
}

std::string Printf(const char* format, ...) {
  char buffer[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  return std::string(buffer);
}

}  // namespace

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += Printf("\\u%04x", c);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string RenderTicket(const Regression& regression, const ChangeLog* change_log,
                         const ReportOptions& options) {
  std::string ticket;
  ticket += Printf("[REGRESSION] %s (%s-term)\n", regression.metric.ToString().c_str(),
                   regression.long_term ? "long" : "short");
  ticket += Printf("  change point : t=%lld (detected at t=%lld)\n",
                   static_cast<long long>(regression.change_time),
                   static_cast<long long>(regression.detected_at));
  ticket += Printf("  magnitude    : %+0.6f absolute (%+.2f%% relative), baseline %.6f\n",
                   regression.delta, regression.relative_delta * 100.0,
                   regression.baseline_mean);
  if (regression.p_value < 1.0) {
    ticket += Printf("  significance : p=%.4g\n", regression.p_value);
  }
  if (regression.merged_count > 1) {
    ticket += Printf("  represents   : %zu deduplicated regressions\n",
                     regression.merged_count);
  }
  if (options.include_sparkline && !regression.analysis.empty()) {
    ticket += "  window shape : " + Sparkline(regression.analysis, options.sparkline_width) +
              "\n";
  }
  if (regression.root_causes.empty()) {
    ticket += "  root cause   : no confident candidate (see change log manually)\n";
  } else {
    ticket += "  root cause   : suspects, most relevant first\n";
    const size_t count = std::min(options.max_causes, regression.root_causes.size());
    for (size_t i = 0; i < count; ++i) {
      const RankedCause& cause = regression.root_causes[i];
      const Commit* commit =
          change_log != nullptr ? change_log->Find(cause.commit_id) : nullptr;
      ticket += Printf("    #%zu commit %lld (score %.2f: struct %.2f, text %.2f, time %.2f)",
                       i + 1, static_cast<long long>(cause.commit_id), cause.score,
                       cause.structural_score, cause.text_score, cause.timing_score);
      if (commit != nullptr) {
        ticket += Printf(" — %s", commit->title.c_str());
      }
      ticket += "\n";
    }
  }
  return ticket;
}

std::string ToJsonLine(const Regression& regression) {
  std::string json = "{";
  json += Printf("\"metric\":\"%s\",", JsonEscape(regression.metric.ToString()).c_str());
  json += Printf("\"long_term\":%s,", regression.long_term ? "true" : "false");
  json += Printf("\"change_time\":%lld,", static_cast<long long>(regression.change_time));
  json += Printf("\"detected_at\":%lld,", static_cast<long long>(regression.detected_at));
  json += Printf("\"baseline\":%.9g,", regression.baseline_mean);
  json += Printf("\"delta\":%.9g,", regression.delta);
  json += Printf("\"relative_delta\":%.9g,", regression.relative_delta);
  json += Printf("\"p_value\":%.9g,", regression.p_value);
  json += Printf("\"merged_count\":%zu,", regression.merged_count);
  json += "\"root_causes\":[";
  for (size_t i = 0; i < regression.root_causes.size(); ++i) {
    if (i > 0) {
      json += ",";
    }
    json += Printf("{\"commit\":%lld,\"score\":%.6g}",
                   static_cast<long long>(regression.root_causes[i].commit_id),
                   regression.root_causes[i].score);
  }
  json += "]}";
  return json;
}

std::string RenderFunnel(const FunnelStats& short_term, const FunnelStats& long_term,
                         bool long_term_enabled) {
  auto row = [](const char* label, uint64_t base, uint64_t value) {
    if (base == 0) {
      return Printf("  %-28s %8llu\n", label, static_cast<unsigned long long>(value));
    }
    return Printf("  %-28s %8llu  (1/%.1f)\n", label,
                  static_cast<unsigned long long>(value),
                  value == 0 ? 0.0 : static_cast<double>(base) / static_cast<double>(value));
  };
  std::string out = "short-term path:\n";
  out += row("change points", 0, short_term.change_points);
  out += row("after went-away", short_term.change_points, short_term.after_went_away);
  out += row("after seasonality", short_term.change_points, short_term.after_seasonality);
  out += row("after threshold", short_term.change_points, short_term.after_threshold);
  out += row("after SameRegressionMerger", short_term.change_points,
             short_term.after_same_merger);
  out += row("after SOMDedup", short_term.change_points, short_term.after_som_dedup);
  out += row("after cost-shift", short_term.change_points, short_term.after_cost_shift);
  out += row("after PairwiseDedup", short_term.change_points, short_term.after_pairwise);
  if (long_term_enabled) {
    out += "long-term path:\n";
    out += row("change points", 0, long_term.change_points);
    out += row("after threshold", long_term.change_points, long_term.after_threshold);
    out += row("after SameRegressionMerger", long_term.change_points,
               long_term.after_same_merger);
    out += row("after SOMDedup", long_term.change_points, long_term.after_som_dedup);
    out += row("after cost-shift", long_term.change_points, long_term.after_cost_shift);
    out += row("after PairwiseDedup", long_term.change_points, long_term.after_pairwise);
  }
  return out;
}

std::string RenderQuarantine(const QuarantineReport& report, size_t max_rows) {
  std::string out = "quarantine:\n";
  out += Printf("  %-28s %8llu\n", "dirty series",
                static_cast<unsigned long long>(report.records.size()));
  out += Printf("  %-28s %8llu\n", "windows quarantined",
                static_cast<unsigned long long>(report.total_windows_quarantined()));
  out += Printf("  %-28s %8llu\n", "decode failures",
                static_cast<unsigned long long>(report.total_decode_failures()));
  out += Printf("  %-28s %8llu\n", "detector exceptions",
                static_cast<unsigned long long>(report.total_exceptions()));
  out += Printf("  %-28s %8llu\n", "dropped duplicates",
                static_cast<unsigned long long>(report.total_dropped_duplicate()));
  out += Printf("  %-28s %8llu\n", "dropped out-of-order",
                static_cast<unsigned long long>(report.total_dropped_out_of_order()));
  size_t rows = 0;
  for (const QuarantineRecord& record : report.records) {
    if (max_rows > 0 && rows >= max_rows) {
      out += Printf("  ... %llu more series\n",
                    static_cast<unsigned long long>(report.records.size() - rows));
      break;
    }
    ++rows;
    out += Printf(
        "  [%s] %s: quarantined=%llu nonfinite=%llu negative=%llu missing=%llu "
        "flap=%llu skew=%llds dup=%llu ooo=%llu exc=%llu\n",
        QualityVerdictName(record.worst), record.metric.ToString().c_str(),
        static_cast<unsigned long long>(record.windows_quarantined),
        static_cast<unsigned long long>(record.non_finite),
        static_cast<unsigned long long>(record.negative),
        static_cast<unsigned long long>(record.missing),
        static_cast<unsigned long long>(record.flap_windows),
        static_cast<long long>(record.max_skew),
        static_cast<unsigned long long>(record.dropped_duplicate),
        static_cast<unsigned long long>(record.dropped_out_of_order),
        static_cast<unsigned long long>(record.exceptions));
    if (!record.last_error.empty()) {
      out += Printf("      last error: %s\n", record.last_error.c_str());
    }
  }
  return out;
}

std::string RenderTelemetry(TelemetryRegistries registries) {
  std::string out = "telemetry:\n";
  const std::vector<CounterSnapshot> counters = SnapshotCounters(registries);
  for (const CounterSnapshot& counter : counters) {
    if (counter.stability == CounterStability::kDeterministic) {
      out += Printf("  %-44s %12llu\n", counter.name.c_str(),
                    static_cast<unsigned long long>(counter.value));
    }
  }
  for (const CounterSnapshot& counter : counters) {
    if (counter.stability == CounterStability::kRuntime) {
      out += Printf("  %-44s %12llu  (runtime)\n", counter.name.c_str(),
                    static_cast<unsigned long long>(counter.value));
    }
  }
  for (const HistogramSnapshot& histogram : SnapshotHistograms(registries)) {
    const double mean = histogram.count > 0
                            ? static_cast<double>(histogram.sum) /
                                  static_cast<double>(histogram.count)
                            : 0.0;
    out += Printf("  %-44s n=%-8llu mean=%.0f\n", histogram.name.c_str(),
                  static_cast<unsigned long long>(histogram.count), mean);
  }
  return out;
}

}  // namespace fbdetect
