#include "src/tsdb/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/common/check.h"
#include "src/tsdb/crc32c.h"
#include "src/tsdb/durable_io.h"

namespace fbdetect {
namespace {

// Frame header: magic, payload length, CRC32C of the payload.
constexpr uint32_t kFrameMagic = 0x46424C47;  // "FBLG"
constexpr size_t kFrameHeaderBytes = 12;
// A frame longer than this is treated as torn garbage rather than an
// allocation request (a corrupted length field must not OOM recovery).
constexpr uint32_t kMaxFrameBytes = 1u << 30;

enum RecordKind : uint8_t {
  kPoints = 1,
  kDropBefore = 2,
  kSealBoundary = 3,
  kSymbol = 4,
};

template <typename T>
void PutRaw(std::vector<uint8_t>& out, const T& value) {
  const size_t at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &value, sizeof(T));
}

// Bounds-checked reader over a frame payload.
class RecordReader {
 public:
  RecordReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  bool done() const { return at_ >= size_; }

  template <typename T>
  bool Read(T& value) {
    if (size_ - at_ < sizeof(T)) {
      return false;
    }
    std::memcpy(&value, data_ + at_, sizeof(T));
    at_ += sizeof(T);
    return true;
  }

  const uint8_t* Bytes(size_t count) {
    if (size_ - at_ < count) {
      return nullptr;
    }
    const uint8_t* p = data_ + at_;
    at_ += count;
    return p;
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t at_ = 0;
};

Status ErrnoStatus(const char* op, const std::string& path) {
  return Status::Internal(std::string(op) + " failed for " + path + ": " +
                          std::strerror(errno));
}

bool WriteAll(int fd, const uint8_t* data, size_t size) {
  while (size > 0) {
    const ssize_t n = durable_io::Write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

// fsyncs the directory containing `path`. An atomic temp+rename replace is
// only durable once the DIRECTORY entry is: without this, a crash right
// after the rename can come back up with the old file contents (the rename
// itself lived only in the page cache), resurrecting log history the
// checkpoint had retired.
Status FsyncParentDirectory(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = durable_io::Open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC, 0);
  if (fd < 0) {
    return ErrnoStatus("open(dir)", dir);
  }
  if (durable_io::Fsync(fd) != 0) {
    const Status status = ErrnoStatus("fsync(dir)", dir);
    ::close(fd);
    return status;
  }
  ::close(fd);
  return Status::Ok();
}

// Dispatches one frame's records; false on a malformed record (which a CRC-
// valid frame should never contain).
bool ReplayFrame(const uint8_t* payload, size_t size,
                 const WriteAheadLog::ReplayHandler& handler, uint64_t& points) {
  RecordReader reader(payload, size);
  std::vector<TimePoint> timestamps;
  std::vector<double> values;
  while (!reader.done()) {
    uint8_t kind = 0;
    if (!reader.Read(kind)) {
      return false;
    }
    switch (kind) {
      case kPoints: {
        InternedMetricId id;
        uint32_t kind_raw = 0;
        uint32_t count = 0;
        if (!reader.Read(id.service) || !reader.Read(kind_raw) ||
            !reader.Read(id.entity) || !reader.Read(id.metadata) ||
            !reader.Read(count)) {
          return false;
        }
        id.kind = static_cast<MetricKind>(kind_raw);
        const uint8_t* data = reader.Bytes(static_cast<size_t>(count) * 16);
        if (data == nullptr) {
          return false;
        }
        timestamps.resize(count);
        values.resize(count);
        for (uint32_t i = 0; i < count; ++i) {
          std::memcpy(&timestamps[i], data + i * 16, 8);
          std::memcpy(&values[i], data + i * 16 + 8, 8);
        }
        points += count;
        if (handler.points) {
          handler.points(id, timestamps, values);
        }
        break;
      }
      case kDropBefore: {
        TimePoint cutoff = 0;
        if (!reader.Read(cutoff)) {
          return false;
        }
        if (handler.drop_before) {
          handler.drop_before(cutoff);
        }
        break;
      }
      case kSealBoundary: {
        TimePoint boundary = 0;
        if (!reader.Read(boundary)) {
          return false;
        }
        if (handler.seal_boundary) {
          handler.seal_boundary(boundary);
        }
        break;
      }
      case kSymbol: {
        uint32_t length = 0;
        if (!reader.Read(length)) {
          return false;
        }
        const uint8_t* data = reader.Bytes(length);
        if (data == nullptr) {
          return false;
        }
        if (handler.symbol) {
          handler.symbol(std::string_view(reinterpret_cast<const char*>(data), length));
        }
        break;
      }
      default:
        return false;
    }
  }
  return true;
}

}  // namespace

WriteAheadLog::~WriteAheadLog() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Status WriteAheadLog::Open(const std::string& path, const ReplayHandler& handler,
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
  std::vector<uint8_t> content(static_cast<size_t>(file_size));
  if (!durable_io::ReadAll(fd, content.data(), content.size())) {
    ::close(fd);
    return ErrnoStatus("pread", path);
  }
  // Replay whole valid frames; stop (and truncate) at the first frame whose
  // header or checksum fails — that is the torn tail of an interrupted group
  // commit, not an error.
  size_t valid_end = 0;
  while (content.size() - valid_end >= kFrameHeaderBytes) {
    uint32_t magic = 0;
    uint32_t length = 0;
    uint32_t crc = 0;
    std::memcpy(&magic, content.data() + valid_end, 4);
    std::memcpy(&length, content.data() + valid_end + 4, 4);
    std::memcpy(&crc, content.data() + valid_end + 8, 4);
    if (magic != kFrameMagic || length > kMaxFrameBytes ||
        content.size() - valid_end - kFrameHeaderBytes < length) {
      break;
    }
    const uint8_t* payload = content.data() + valid_end + kFrameHeaderBytes;
    if (Crc32c(payload, length) != crc) {
      break;
    }
    if (!ReplayFrame(payload, length, handler, stats_.replayed_points)) {
      ::close(fd);
      return Status::DataLoss("CRC-valid WAL frame with malformed records: " + path);
    }
    valid_end += kFrameHeaderBytes + length;
  }
  stats_.truncated_bytes = static_cast<uint64_t>(file_size) - valid_end;
  if (stats_.truncated_bytes > 0 && ::ftruncate(fd, static_cast<off_t>(valid_end)) != 0) {
    ::close(fd);
    return ErrnoStatus("ftruncate", path);
  }
  if (::lseek(fd, static_cast<off_t>(valid_end), SEEK_SET) < 0) {
    ::close(fd);
    return ErrnoStatus("lseek", path);
  }
  stats_.file_bytes = valid_end;
  fd_ = fd;
  return Status::Ok();
}

void WriteAheadLog::BufferPoints(const InternedMetricId& id,
                                 std::span<const TimePoint> timestamps,
                                 std::span<const double> values) {
  FBD_DCHECK(timestamps.size() == values.size());
  if (timestamps.empty()) {
    return;
  }
  PutRaw<uint8_t>(pending_, kPoints);
  PutRaw<uint32_t>(pending_, id.service);
  PutRaw<uint32_t>(pending_, static_cast<uint32_t>(id.kind));
  PutRaw<uint32_t>(pending_, id.entity);
  PutRaw<uint32_t>(pending_, id.metadata);
  PutRaw<uint32_t>(pending_, static_cast<uint32_t>(timestamps.size()));
  const size_t at = pending_.size();
  pending_.resize(at + timestamps.size() * 16);
  for (size_t i = 0; i < timestamps.size(); ++i) {
    std::memcpy(pending_.data() + at + i * 16, &timestamps[i], 8);
    std::memcpy(pending_.data() + at + i * 16 + 8, &values[i], 8);
  }
}

void WriteAheadLog::BufferDropBefore(TimePoint cutoff) {
  PutRaw<uint8_t>(pending_, kDropBefore);
  PutRaw<TimePoint>(pending_, cutoff);
}

void WriteAheadLog::BufferSealBoundary(TimePoint boundary) {
  PutRaw<uint8_t>(pending_, kSealBoundary);
  PutRaw<TimePoint>(pending_, boundary);
}

void WriteAheadLog::BufferSymbol(std::string_view name) {
  PutRaw<uint8_t>(pending_, kSymbol);
  PutRaw<uint32_t>(pending_, static_cast<uint32_t>(name.size()));
  const size_t at = pending_.size();
  pending_.resize(at + name.size());
  std::memcpy(pending_.data() + at, name.data(), name.size());
}

Status WriteAheadLog::WriteFrame(int fd, bool do_fsync) {
  std::vector<uint8_t> frame;
  frame.reserve(kFrameHeaderBytes + pending_.size());
  PutRaw<uint32_t>(frame, kFrameMagic);
  PutRaw<uint32_t>(frame, static_cast<uint32_t>(pending_.size()));
  PutRaw<uint32_t>(frame, Crc32c(pending_.data(), pending_.size()));
  frame.insert(frame.end(), pending_.begin(), pending_.end());
  if (!WriteAll(fd, frame.data(), frame.size())) {
    return ErrnoStatus("write", path_);
  }
  if (do_fsync && durable_io::Fsync(fd) != 0) {
    return ErrnoStatus("fsync", path_);
  }
  stats_.bytes_written += frame.size();
  ++stats_.group_commits;
  return Status::Ok();
}

Status WriteAheadLog::Commit() {
  FBD_CHECK(fd_ >= 0);
  if (pending_.empty()) {
    return Status::Ok();
  }
  const size_t frame_bytes = kFrameHeaderBytes + pending_.size();
  const Status status = WriteFrame(fd_, fsync_);
  pending_.clear();
  if (status.ok()) {
    stats_.file_bytes += frame_bytes;
  }
  return status;
}

Status WriteAheadLog::Rewrite() {
  FBD_CHECK(fd_ >= 0);
  const std::string temp_path = path_ + ".tmp";
  const int temp_fd =
      durable_io::Open(temp_path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (temp_fd < 0) {
    pending_.clear();
    return ErrnoStatus("open", temp_path);
  }
  const bool wrote_frame = !pending_.empty();
  const size_t frame_bytes = wrote_frame ? kFrameHeaderBytes + pending_.size() : 0;
  Status status = wrote_frame ? WriteFrame(temp_fd, fsync_) : Status::Ok();
  pending_.clear();
  bool renamed = false;
  if (status.ok()) {
    renamed = durable_io::Rename(temp_path.c_str(), path_.c_str()) == 0;
    if (!renamed) {
      status = ErrnoStatus("rename", temp_path);
    }
  }
  // The rename only becomes crash-durable once the directory entry does;
  // without the directory fsync a crash here can resurrect the old log.
  if (status.ok() && fsync_) {
    status = FsyncParentDirectory(path_);
  }
  if (!renamed) {
    ::close(temp_fd);
    ::unlink(temp_path.c_str());
    return status;
  }
  // The old fd now refers to the unlinked previous log; swap in the new one
  // (even if the directory fsync failed — in-memory state must track the
  // on-disk file, and the caller degrades on the returned error).
  ::close(fd_);
  fd_ = temp_fd;
  stats_.file_bytes = frame_bytes;
  ++stats_.rewrites;
  return status;
}

}  // namespace fbdetect
