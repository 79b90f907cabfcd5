#include "harness/inputs.h"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <unordered_set>

#include <unistd.h>

#include "src/fleet/fleet.h"
#include "src/fleet/scenario.h"
#include "src/service/wire.h"
#include "src/tsdb/database.h"

namespace perfbench {
namespace {

using fbdetect::InternedMetricId;
using fbdetect::ServiceSimulator;

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Stages simulator ticks into a WriteBatch against a private database that
// never commits (the same interning donor src/service/workload.cc uses) and
// exports the staged columns as encoded wire bodies.
class BodyEncoder {
 public:
  BodyEncoder() : db_(Options()), batch_(&db_) {}

  // Ticks every simulator at each t in [first, last] (step `tick`) into one
  // body appended to `spool`; a `pooled` body keeps its timestamp offsets.
  WireBody Encode(const std::vector<ServiceSimulator*>& sims, TimePoint first,
                  TimePoint last, Duration tick, Spool& spool, bool pooled) {
    for (TimePoint t = first; t <= last; t += tick) {
      for (ServiceSimulator* sim : sims) {
        sim->Tick(t, batch_);
      }
    }
    fbdetect::WireBatch wire;
    batch_.MutateColumns([&](const InternedMetricId& id, std::vector<TimePoint>& timestamps,
                             std::vector<double>& values) {
      if (!timestamps.empty()) {
        fbdetect::WireSeries series;
        series.id = db_.Resolve(id);
        series.timestamps = timestamps;
        series.values = values;
        wire.total_points += timestamps.size();
        wire.series.push_back(std::move(series));
        seen_.insert(id);
      }
      timestamps.clear();
      values.clear();
    });
    bytes_.clear();
    fbdetect::EncodeWireBatch(wire, bytes_);
    WireBody body;
    body.points = static_cast<uint32_t>(wire.total_points);
    body.first_tick = first;
    body.last_tick = last;
    body.spool = &spool;
    body.offset = spool.Append(bytes_);
    body.size = static_cast<uint32_t>(bytes_.size());
    if (!pooled) {
      return body;
    }
    // Walk the layout documented in src/service/wire.h to find timestamps.
    size_t at = fbdetect::kWireHeaderBytes;
    body.timestamp_offsets.reserve(body.points);
    for (const fbdetect::WireSeries& series : wire.series) {
      at += 1 + 1 + 2 + 2 + 4;
      at += series.id.service.size() + series.id.entity.size() + series.id.metadata.size();
      for (size_t i = 0; i < series.timestamps.size(); ++i) {
        body.timestamp_offsets.push_back(static_cast<uint32_t>(at));
        at += 16;
      }
    }
    return body;
  }

  // Distinct series seen so far, per service name.
  std::map<std::string, size_t> SeriesPerService() const {
    std::map<std::string, size_t> counts;
    for (const InternedMetricId& id : seen_) {
      ++counts[db_.Resolve(id).service];
    }
    return counts;
  }

 private:
  static fbdetect::TsdbOptions Options() {
    fbdetect::TsdbOptions options;
    options.shard_count = 4;
    return options;
  }

  fbdetect::TimeSeriesDatabase db_;
  fbdetect::WriteBatch batch_;
  std::unordered_set<InternedMetricId, fbdetect::InternedMetricIdHash> seen_;
  std::string bytes_;
};

fbdetect::ScenarioOptions ServiceScenario(const std::string& name, int subroutines,
                                          Duration duration, uint64_t seed) {
  fbdetect::ScenarioOptions options;
  options.service_name = name;
  options.num_subroutines = subroutines;
  options.duration = duration;
  options.seed = seed;
  return options;
}

}  // namespace

Spool::Spool(const std::string& directory) {
  std::string path = directory + "/spool-XXXXXX";
  fd_ = ::mkstemp(path.data());
  if (fd_ < 0) {
    throw std::runtime_error("cannot create a spool file under " + directory);
  }
  ::unlink(path.c_str());  // Gone on every exit path; the descriptor keeps it.
}

Spool::~Spool() { ::close(fd_); }

uint64_t Spool::Append(std::string_view bytes) {
  const uint64_t offset = size_;
  for (size_t done = 0; done < bytes.size();) {
    const ssize_t n = ::pwrite(fd_, bytes.data() + done, bytes.size() - done,
                               static_cast<off_t>(size_ + done));
    if (n < 0 && errno != EINTR) {
      throw std::runtime_error(std::string("spool write failed: ") + std::strerror(errno));
    }
    done += n > 0 ? static_cast<size_t>(n) : 0;
  }
  size_ += bytes.size();
  return offset;
}

void Spool::Read(uint64_t offset, uint32_t size, std::string& out) const {
  out.resize(size);
  for (size_t done = 0; done < size;) {
    const ssize_t n = ::pread(fd_, out.data() + done, size - done,
                              static_cast<off_t>(offset + done));
    if (n == 0 || (n < 0 && errno != EINTR)) {
      throw std::runtime_error("spool read failed");
    }
    done += n > 0 ? static_cast<size_t>(n) : 0;
  }
}

void LoadBody(const WireBody& body, int64_t shift, std::string& out) {
  body.spool->Read(body.offset, body.size, out);
  if (shift == 0) {
    return;
  }
  if (body.timestamp_offsets.size() != body.points) {
    throw std::logic_error("only pooled bodies are re-sent shifted");
  }
  char* base = out.data();
  for (const uint32_t offset : body.timestamp_offsets) {
    int64_t ts = 0;
    std::memcpy(&ts, base + offset, sizeof(ts));
    ts += shift;
    std::memcpy(base + offset, &ts, sizeof(ts));
  }
}

ScannedFleet MakeScannedFleet(uint64_t seed, const ScannedFleetOptions& options, Spool& spool) {
  // One fleet per service: each scenario keeps its own time-ordered change log.
  std::vector<std::unique_ptr<fbdetect::FleetSimulator>> fleets;
  ScannedFleet out;
  std::vector<ServiceSimulator*> sims;
  for (int s = 0; s < options.services; ++s) {
    const std::string name = "frontfaas_" + std::to_string(s);
    fleets.push_back(std::make_unique<fbdetect::FleetSimulator>());
    const fbdetect::Scenario scenario = fbdetect::GenerateScenario(
        *fleets.back(), ServiceScenario(name, options.subroutines, options.duration,
                                        Mix(seed, static_cast<uint64_t>(s))));
    sims.push_back(scenario.service);
    out.services.push_back(name);
    out.begin = scenario.begin;
    out.end = scenario.end;
    const std::vector<fbdetect::InjectedEvent>& truth = fleets.back()->ground_truth();
    out.events.insert(out.events.end(), truth.begin(), truth.end());
  }
  out.tick = sims.front()->config().tick;

  BodyEncoder encoder;
  if (options.stop > 0) {
    out.end = std::min(out.end, options.stop);
  }
  TimePoint t = out.begin + out.tick;  // The fleet's first tick (FleetSimulator::Run).
  while (t <= out.end) {
    const int ticks = t < options.split ? options.preload_ticks_per_body : 1;
    TimePoint last = t + (ticks - 1) * out.tick;
    if (ticks > 1) {
      last = std::min(last, options.split - out.tick);
    }
    last = std::min(last, out.end);
    out.bodies.push_back(encoder.Encode(sims, t, last, out.tick, spool, /*pooled=*/false));
    t = last + out.tick;
  }
  const std::map<std::string, size_t> counts = encoder.SeriesPerService();
  for (const std::string& name : out.services) {
    const auto it = counts.find(name);
    out.series_per_service.push_back(it == counts.end() ? 0 : it->second);
  }
  return out;
}

IngestFleet MakeIngestFleet(uint64_t seed, const IngestFleetOptions& options, Spool& spool) {
  IngestFleet out;
  out.groups = options.groups;
  out.preload_ticks = options.preload_ticks;
  out.pool_ticks = options.pool_ticks;
  out.start = options.start;
  const int64_t ticks = options.preload_ticks + options.pool_ticks;
  BodyEncoder encoder;
  for (int g = 0; g < options.groups; ++g) {
    std::vector<std::unique_ptr<fbdetect::FleetSimulator>> fleets;
    std::vector<ServiceSimulator*> sims;
    for (int s = 0; s < options.services_per_group; ++s) {
      char name[32];
      std::snprintf(name, sizeof(name), "fleet_%02d_%02d", g, s);
      fleets.push_back(std::make_unique<fbdetect::FleetSimulator>());
      const fbdetect::Scenario scenario = fbdetect::GenerateScenario(
          *fleets.back(),
          ServiceScenario(name, options.subroutines,
                          options.start + (ticks + 1) * fbdetect::Minutes(10),
                          Mix(seed, 1000 + static_cast<uint64_t>(g * 100 + s))));
      sims.push_back(scenario.service);
    }
    out.tick = sims.front()->config().tick;
    std::vector<WireBody>& preload = out.preload.emplace_back();
    for (int64_t k = 0; k < options.preload_ticks; k += options.preload_ticks_per_body) {
      const int64_t last = std::min(k + options.preload_ticks_per_body, options.preload_ticks) - 1;
      preload.push_back(encoder.Encode(sims, out.TickTime(k), out.TickTime(last), out.tick, spool,
                                       /*pooled=*/false));
    }
    std::vector<WireBody>& pool = out.pool.emplace_back();
    for (int64_t k = options.preload_ticks; k < ticks; ++k) {
      pool.push_back(encoder.Encode(sims, out.TickTime(k), out.TickTime(k), out.tick, spool,
                                    /*pooled=*/true));
    }
  }
  return out;
}

void InputDigest::Bytes(const void* data, size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    state_ ^= p[i];
    state_ *= 0x100000001b3ull;
  }
}

void InputDigest::Add(const WireBody& body) {
  LoadBody(body, 0, scratch_);
  Bytes(scratch_.data(), scratch_.size());
}

void InputDigest::Add(const ScannedFleet& fleet) {
  for (const WireBody& body : fleet.bodies) {
    Add(body);
  }
  for (const fbdetect::InjectedEvent& event : fleet.events) {
    const int64_t fields[] = {static_cast<int64_t>(event.kind), event.start, event.duration,
                              event.ramp, event.commit_id};
    Bytes(fields, sizeof(fields));
    Bytes(&event.magnitude, sizeof(event.magnitude));
    Bytes(event.service.data(), event.service.size());
    Bytes(event.subroutine.data(), event.subroutine.size());
  }
}

void InputDigest::Add(const IngestFleet& fleet) {
  for (const auto* bodies : {&fleet.preload, &fleet.pool}) {
    for (const std::vector<WireBody>& group : *bodies) {
      for (const WireBody& body : group) {
        Add(body);
      }
    }
  }
}

std::string InputDigest::Hex() const {
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, state_);
  return buffer;
}

}  // namespace perfbench
