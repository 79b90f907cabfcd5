#include "harness/replay.h"

#include <span>
#include <stdexcept>

#include "src/core/pipeline.h"
#include "src/report/report.h"
#include "src/service/wire.h"

namespace perfbench {

Replay ReplaySpans(const std::vector<Span>& spans, int scan_threads,
                   const std::string& scratch_parent) {
  Replay out;
  out.cost_ms.assign(spans.size(), 0.0);
  out.bodies.resize(spans.size());

  TempDir dir(scratch_parent);
  fbdetect::TimeSeriesDatabase db(DurableTsdbOptions(dir.path()));
  fbdetect::Pipeline pipeline(&db, nullptr, nullptr,
                              ServedPipelineOptions(scan_threads, /*telemetry=*/false));
  fbdetect::WriteBatch batch(&db);
  fbdetect::WireBatch wire;
  std::vector<fbdetect::InternedMetricId> ids;
  std::string bytes;
  const fbdetect::TimeSeriesDatabase::ScanStats scan_before = db.scan_stats();

  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.status != 200) {
      continue;  // Only what the service accepted reached its database.
    }
    switch (span.kind) {
      case Span::Kind::kIngest: {
        LoadBody(*span.body, span.shift, bytes);
        const uint64_t t0 = NowNs();
        const fbdetect::Status parsed = fbdetect::ParseWireBatch(
            std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(bytes.data()),
                                     bytes.size()),
            &wire);
        const uint64_t t1 = NowNs();
        if (!parsed.ok()) {
          throw std::runtime_error("replay parse failed: " + parsed.message());
        }
        ids.clear();
        uint64_t intern_ns = 0;
        for (const fbdetect::WireSeries& series : wire.series) {
          const uint64_t a = NowNs();
          ids.push_back(db.Intern(series.id));
          intern_ns += NowNs() - a;
        }
        const uint64_t t2 = NowNs();
        for (size_t s = 0; s < wire.series.size(); ++s) {
          const fbdetect::WireSeries& series = wire.series[s];
          for (size_t p = 0; p < series.timestamps.size(); ++p) {
            batch.Add(ids[s], series.timestamps[p], series.values[p]);
          }
        }
        batch.Commit();
        const uint64_t t3 = NowNs();
        out.parse_ns += static_cast<double>(t1 - t0);
        out.parsed_points += wire.total_points;
        out.intern_ns += static_cast<double>(intern_ns);
        out.interned_series += wire.series.size();
        out.commit_ns += static_cast<double>(t3 - t2);
        out.committed_points += wire.total_points;
        out.cost_ms[i] = static_cast<double>((t1 - t0) + intern_ns + (t3 - t2)) / 1e6;
        break;
      }
      case Span::Kind::kSeal: {
        const uint64_t t0 = NowNs();
        db.SealBefore(span.cause);
        const uint64_t t1 = NowNs();
        db.SyncDurable();
        const uint64_t t2 = NowNs();
        out.seal_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
        out.sync_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
        out.cost_ms[i] = static_cast<double>(t2 - t0) / 1e6;
        break;
      }
      case Span::Kind::kRun: {
        const uint64_t t0 = NowNs();
        const std::vector<fbdetect::Regression> reports = pipeline.RunAt(span.service, span.cause);
        const uint64_t t1 = NowNs();
        std::string& body = out.bodies[i];
        for (const fbdetect::Regression& regression : reports) {
          body += fbdetect::ToJsonLine(regression);
          body += '\n';
        }
        const uint64_t t2 = NowNs();
        out.render_ns += static_cast<double>(t2 - t1);
        out.lines += reports.size();
        if (span.timed) {
          out.run_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
        }
        out.cost_ms[i] = static_cast<double>(t2 - t0) / 1e6;
        break;
      }
    }
  }
  out.durable = db.durable_stats();
  const fbdetect::TimeSeriesDatabase::ScanStats scan_after = db.scan_stats();
  out.scan = scan_after;
  out.scan.tail_hits -= scan_before.tail_hits;
  out.scan.sealed_decodes -= scan_before.sealed_decodes;
  out.memory = db.memory_stats();
  return out;
}

}  // namespace perfbench
