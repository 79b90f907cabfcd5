#include "src/tsdb/tiered_series.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/common/check.h"

namespace fbdetect {

AppendOutcome TieredSeries::TryAppend(TimePoint timestamp, double value) {
  const TimePoint newest =
      tail_.empty() ? (chunks_.empty() ? 0 : chunks_.back().last) : tail_.end_time();
  const bool have_points = !tail_.empty() || !chunks_.empty();
  if (have_points && timestamp <= newest) {
    return timestamp == newest ? AppendOutcome::kDuplicate : AppendOutcome::kOutOfOrder;
  }
  tail_.Append(timestamp, value);
  return AppendOutcome::kAppended;
}

size_t TieredSeries::sealed_bytes() const {
  size_t bytes = 0;
  for (const Chunk& chunk : chunks_) {
    bytes += chunk.data.byte_size();
  }
  return bytes;
}

bool TieredSeries::TailCovers(TimePoint begin) const {
  return chunks_.empty() || chunks_.back().last < begin;
}

void TieredSeries::SealBefore(TimePoint boundary) {
  const auto [first, split] = tail_.SliceIndices(tail_.start_time(), boundary);
  (void)first;
  if (tail_.empty() || split == 0) {
    return;
  }
  const std::vector<TimePoint>& timestamps = tail_.timestamps();
  const std::vector<double>& values = tail_.values();
  for (size_t i = 0; i < split; ++i) {
    // A restored newest chunk has no encoder state, so the first seal after
    // a reopen starts a fresh chunk. Chunk boundaries may therefore differ
    // from a RAM-only run, which is fine: boundaries are a storage detail and
    // window extraction slices exact spans either way.
    if (chunks_.empty() || !chunks_.back().data.can_append() ||
        chunks_.back().count >= seal_chunk_points_) {
      chunks_.emplace_back();
      chunks_.back().first = timestamps[i];
    }
    Chunk& chunk = chunks_.back();
    chunk.data.Append(timestamps[i], values[i]);
    chunk.last = timestamps[i];
    ++chunk.count;
  }
  sealed_points_ += split;
  tail_.DropBefore(boundary);
}

Status TieredSeries::TryMaterializeFrom(TimePoint begin, TimeSeries& out) const {
  for (const Chunk& chunk : chunks_) {
    if (chunk.last < begin) {
      continue;
    }
    FBD_RETURN_IF_ERROR(chunk.data.TryDecodeInto(out));
  }
  // The tail is a TimeSeries, so it is internally strictly increasing by
  // invariant; only the seam against the decoded chunks needs checking
  // before the bulk append.
  if (!tail_.empty()) {
    if (!out.empty() && tail_.start_time() <= out.end_time()) {
      return Status::DataLoss("tail does not continue sealed history");
    }
    out.AppendRun(tail_.timestamps(), tail_.values());
  }
  return Status::Ok();
}

void TieredSeries::DropBefore(TimePoint cutoff) {
  size_t drop = 0;
  while (drop < chunks_.size() && chunks_[drop].last < cutoff) {
    sealed_points_ -= chunks_[drop].count;
    ++drop;
  }
  if (drop > 0) {
    chunks_.erase(chunks_.begin(), chunks_.begin() + static_cast<long>(drop));
  }
  TimeSeries decoded;
  if (!chunks_.empty() && chunks_.front().first < cutoff &&
      chunks_.front().data.TryDecodeInto(decoded).ok()) {
    // Straddling chunk: decode, trim, re-encode. The trimmed chunk no longer
    // matches what the store holds, so the next durable seal re-persists it.
    // A chunk that does not decode stays as it is, untrimmed, and its range
    // keeps reading as kDataLoss.
    Chunk& chunk = chunks_.front();
    decoded.DropBefore(cutoff);
    sealed_points_ -= chunk.count - decoded.size();
    CompressedTimeSeries reencoded;
    const std::vector<TimePoint>& timestamps = decoded.timestamps();
    const std::vector<double>& values = decoded.values();
    for (size_t i = 0; i < timestamps.size(); ++i) {
      reencoded.Append(timestamps[i], values[i]);
    }
    chunk.data = std::move(reencoded);
    chunk.first = decoded.start_time();
    chunk.count = static_cast<uint32_t>(decoded.size());
    chunk.durable_count = 0;
  }
  tail_.DropBefore(cutoff);
}

void TieredSeries::RestoreSealedChunk(std::span<const uint8_t> payload,
                                      uint64_t bit_count, uint32_t count,
                                      TimePoint first, TimePoint last) {
  FBD_CHECK(tail_.empty());
  FBD_CHECK(count > 0);
  // Later records supersede earlier ones they INTERSECT: a chunk grown by a
  // later seal (same first, later last) or trimmed by retention and
  // re-encoded (later first, same last) was re-appended in full, so any
  // earlier record overlapping [first, last] is stale. Only intersecting
  // chunks are removed — a trimmed oldest chunk re-appended after its
  // neighbors must not swallow the later, disjoint ranges — and the incoming
  // chunk is inserted at its sorted position, keeping chunks_ ordered and
  // non-overlapping.
  const auto intersects = [&](const Chunk& c) {
    return c.last >= first && c.first <= last;
  };
  for (const Chunk& c : chunks_) {
    if (intersects(c)) {
      sealed_points_ -= c.count;
    }
  }
  chunks_.erase(std::remove_if(chunks_.begin(), chunks_.end(), intersects),
                chunks_.end());
  Chunk chunk;
  // Clamped: FromRaw checks fatally that the bit count fits the bytes.
  chunk.data = CompressedTimeSeries::FromRaw(
      std::vector<uint8_t>(payload.begin(), payload.end()),
      std::min<uint64_t>(bit_count, payload.size() * 8), count);
  chunk.first = first;
  chunk.last = last;
  chunk.count = count;
  chunk.durable_count = count;
  const auto at = std::upper_bound(
      chunks_.begin(), chunks_.end(), chunk,
      [](const Chunk& a, const Chunk& b) { return a.first < b.first; });
  chunks_.insert(at, std::move(chunk));
  sealed_points_ += count;
}

TieredSeries::ChunkInfo TieredSeries::GetChunkInfo(size_t index) const {
  FBD_CHECK(index < chunks_.size());
  const Chunk& chunk = chunks_[index];
  ChunkInfo info;
  info.first = chunk.first;
  info.last = chunk.last;
  info.count = chunk.count;
  return info;
}

bool TieredSeries::ChunkNeedsPersist(size_t index) const {
  FBD_CHECK(index < chunks_.size());
  const Chunk& chunk = chunks_[index];
  return chunk.count > chunk.durable_count;
}

const CompressedTimeSeries& TieredSeries::ChunkData(size_t index) const {
  FBD_CHECK(index < chunks_.size());
  return chunks_[index].data;
}

void TieredSeries::MarkChunkDurable(size_t index) {
  FBD_CHECK(index < chunks_.size());
  chunks_[index].durable_count = chunks_[index].count;
}

}  // namespace fbdetect
