#include "src/tsdb/chunk_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "src/common/check.h"
#include "src/tsdb/crc32c.h"
#include "src/tsdb/durable_io.h"

namespace fbdetect {
namespace {

constexpr uint32_t kChunkMagic = 0x4642434B;  // "FBCK"
// magic + crc + id(4*u32) + count + payload_len + bit_count + first + last.
constexpr size_t kRecordHeaderBytes = 4 + 4 + 16 + 4 + 4 + 8 + 8 + 8;
// A payload longer than this is torn garbage, not an allocation request.
constexpr uint32_t kMaxPayloadBytes = 1u << 30;

Status ErrnoStatus(const char* op, const std::string& path) {
  return Status::Internal(std::string(op) + " failed for " + path + ": " +
                          std::strerror(errno));
}

template <typename T>
void PutRaw(std::vector<uint8_t>& out, const T& value) {
  const size_t at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &value, sizeof(T));
}

template <typename T>
T GetRaw(const uint8_t* p) {
  T value;
  std::memcpy(&value, p, sizeof(T));
  return value;
}

}  // namespace

ChunkStore::~ChunkStore() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Status ChunkStore::Open(const std::string& path, const RestoreFn& restore,
                        bool fsync) {
  FBD_CHECK(fd_ < 0);
  path_ = path;
  fsync_ = fsync;
  const int fd = durable_io::Open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return ErrnoStatus("open", path);
  }
  const off_t file_size = ::lseek(fd, 0, SEEK_END);
  if (file_size < 0) {
    ::close(fd);
    return ErrnoStatus("lseek", path);
  }
  fd_ = fd;
  const uint64_t size = static_cast<uint64_t>(file_size);
  std::vector<uint8_t> content(size);
  if (!durable_io::ReadAll(fd, content.data(), content.size())) {
    return ErrnoStatus("pread", path);
  }
  // Validate records sequentially; stop (and truncate) at the first record
  // whose magic, bounds, or CRC fails — the torn tail of an interrupted
  // persist, not an error.
  uint64_t valid_end = 0;
  while (size - valid_end >= kRecordHeaderBytes) {
    const uint8_t* rec = content.data() + valid_end;
    const uint32_t magic = GetRaw<uint32_t>(rec);
    const uint32_t crc = GetRaw<uint32_t>(rec + 4);
    const uint32_t payload_len = GetRaw<uint32_t>(rec + 28);
    if (magic != kChunkMagic || payload_len > kMaxPayloadBytes ||
        size - valid_end - kRecordHeaderBytes < payload_len) {
      break;
    }
    const size_t record_bytes = kRecordHeaderBytes + payload_len;
    if (Crc32c(rec + 8, record_bytes - 8) != crc) {
      break;
    }
    RestoredChunk chunk;
    chunk.id.service = GetRaw<uint32_t>(rec + 8);
    chunk.id.kind = static_cast<MetricKind>(GetRaw<uint32_t>(rec + 12));
    chunk.id.entity = GetRaw<uint32_t>(rec + 16);
    chunk.id.metadata = GetRaw<uint32_t>(rec + 20);
    chunk.count = GetRaw<uint32_t>(rec + 24);
    chunk.payload = {rec + kRecordHeaderBytes, payload_len};
    chunk.bit_count = GetRaw<uint64_t>(rec + 32);
    chunk.first = GetRaw<TimePoint>(rec + 40);
    chunk.last = GetRaw<TimePoint>(rec + 48);
    ++stats_.restored_chunks;
    if (restore) {
      restore(chunk);
    }
    valid_end += record_bytes;
  }
  stats_.truncated_bytes = size - valid_end;
  if (stats_.truncated_bytes > 0 &&
      ::ftruncate(fd, static_cast<off_t>(valid_end)) != 0) {
    return ErrnoStatus("ftruncate", path);
  }
  append_offset_ = valid_end;
  stats_.file_bytes = valid_end;
  return Status::Ok();
}

Status ChunkStore::Append(const InternedMetricId& id,
                          std::span<const uint8_t> payload, uint64_t bit_count,
                          uint32_t count, TimePoint first, TimePoint last) {
  FBD_CHECK(fd_ >= 0);
  FBD_CHECK(payload.size() <= kMaxPayloadBytes);
  std::vector<uint8_t> record;
  record.reserve(kRecordHeaderBytes + payload.size());
  PutRaw<uint32_t>(record, kChunkMagic);
  PutRaw<uint32_t>(record, 0);  // CRC placeholder.
  PutRaw<uint32_t>(record, id.service);
  PutRaw<uint32_t>(record, static_cast<uint32_t>(id.kind));
  PutRaw<uint32_t>(record, id.entity);
  PutRaw<uint32_t>(record, id.metadata);
  PutRaw<uint32_t>(record, count);
  PutRaw<uint32_t>(record, static_cast<uint32_t>(payload.size()));
  PutRaw<uint64_t>(record, bit_count);
  PutRaw<TimePoint>(record, first);
  PutRaw<TimePoint>(record, last);
  record.insert(record.end(), payload.begin(), payload.end());
  const uint32_t crc = Crc32c(record.data() + 8, record.size() - 8);
  std::memcpy(record.data() + 4, &crc, 4);

  size_t written = 0;
  while (written < record.size()) {
    const ssize_t n =
        durable_io::Pwrite(fd_, record.data() + written, record.size() - written,
                           static_cast<off_t>(append_offset_ + written));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return ErrnoStatus("pwrite", path_);
    }
    written += static_cast<size_t>(n);
  }
  append_offset_ += record.size();
  ++stats_.appends;
  stats_.file_bytes = append_offset_;
  return Status::Ok();
}

Status ChunkStore::Sync() {
  FBD_CHECK(fd_ >= 0);
  if (fsync_ && durable_io::Fsync(fd_) != 0) {
    return ErrnoStatus("fsync", path_);
  }
  return Status::Ok();
}

}  // namespace fbdetect
