#include "src/tsdb/durable_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace fbdetect {
namespace durable_io {
namespace {

struct Plan {
  std::atomic<bool> armed{false};
  std::atomic<int> op{0};
  std::atomic<uint64_t> nth{0};
  std::atomic<bool> sticky{false};
};

Plan g_plan;
std::atomic<uint64_t> g_calls[kOpCount];
std::atomic<uint64_t> g_failures[kOpCount];
std::once_flag g_env_once;

void LoadEnvPlan() {
  const char* spec = std::getenv("FBD_FAIL_DURABLE_IO");
  if (spec == nullptr || spec[0] == '\0') {
    return;
  }
  const char* colon = std::strchr(spec, ':');
  if (colon == nullptr) {
    std::fprintf(stderr, "FBD_FAIL_DURABLE_IO: malformed spec \"%s\" (want op:n)\n", spec);
    return;
  }
  const std::string_view op_name(spec, static_cast<size_t>(colon - spec));
  Op op;
  if (op_name == "write") {
    op = Op::kWrite;
  } else if (op_name == "fsync") {
    op = Op::kFsync;
  } else if (op_name == "rename") {
    op = Op::kRename;
  } else if (op_name == "open") {
    op = Op::kOpen;
  } else {
    std::fprintf(stderr, "FBD_FAIL_DURABLE_IO: unknown op \"%.*s\"\n",
                 static_cast<int>(op_name.size()), op_name.data());
    return;
  }
  char* end = nullptr;
  const unsigned long long nth = std::strtoull(colon + 1, &end, 10);
  const bool sticky = end != nullptr && std::strcmp(end, ":sticky") == 0;
  if (nth == 0 || end == nullptr || (*end != '\0' && !sticky)) {
    std::fprintf(stderr, "FBD_FAIL_DURABLE_IO: malformed count in \"%s\"\n", spec);
    return;
  }
  SetFailure(op, nth, sticky);
}

// Counts the call and decides whether injection fails it (setting EIO).
bool ShouldFail(Op op) {
  std::call_once(g_env_once, LoadEnvPlan);
  const uint64_t call =
      g_calls[static_cast<int>(op)].fetch_add(1, std::memory_order_relaxed) + 1;
  if (!g_plan.armed.load(std::memory_order_relaxed) ||
      g_plan.op.load(std::memory_order_relaxed) != static_cast<int>(op)) {
    return false;
  }
  const uint64_t nth = g_plan.nth.load(std::memory_order_relaxed);
  const bool hit =
      g_plan.sticky.load(std::memory_order_relaxed) ? call >= nth : call == nth;
  if (hit) {
    g_failures[static_cast<int>(op)].fetch_add(1, std::memory_order_relaxed);
    errno = EIO;
  }
  return hit;
}

}  // namespace

int Open(const char* path, int flags, mode_t mode) {
  if (ShouldFail(Op::kOpen)) {
    return -1;
  }
  return ::open(path, flags, mode);
}

ssize_t Write(int fd, const void* data, size_t size) {
  if (ShouldFail(Op::kWrite)) {
    return -1;
  }
  return ::write(fd, data, size);
}

ssize_t Pwrite(int fd, const void* data, size_t size, off_t offset) {
  if (ShouldFail(Op::kWrite)) {
    return -1;
  }
  return ::pwrite(fd, data, size, offset);
}

int Fsync(int fd) {
  if (ShouldFail(Op::kFsync)) {
    return -1;
  }
  return ::fsync(fd);
}

int Rename(const char* from, const char* to) {
  if (ShouldFail(Op::kRename)) {
    return -1;
  }
  return ::rename(from, to);
}

bool ReadAll(int fd, uint8_t* data, size_t size) {
  for (size_t got = 0; got < size;) {
    const ssize_t n = ::pread(fd, data + got, size - got, static_cast<off_t>(got));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      if (n == 0) {
        errno = EIO;
      }
      return false;
    }
    got += static_cast<size_t>(n);
  }
  return true;
}

void SetFailure(Op op, uint64_t nth, bool sticky) {
  g_plan.op.store(static_cast<int>(op), std::memory_order_relaxed);
  g_plan.nth.store(nth, std::memory_order_relaxed);
  g_plan.sticky.store(sticky, std::memory_order_relaxed);
  g_plan.armed.store(true, std::memory_order_relaxed);
  for (auto& count : g_calls) {
    count.store(0, std::memory_order_relaxed);
  }
  for (auto& count : g_failures) {
    count.store(0, std::memory_order_relaxed);
  }
}

void ClearFailure() {
  g_plan.armed.store(false, std::memory_order_relaxed);
  for (auto& count : g_calls) {
    count.store(0, std::memory_order_relaxed);
  }
  for (auto& count : g_failures) {
    count.store(0, std::memory_order_relaxed);
  }
}

uint64_t CallCount(Op op) {
  return g_calls[static_cast<int>(op)].load(std::memory_order_relaxed);
}

uint64_t InjectedFailureCount(Op op) {
  return g_failures[static_cast<int>(op)].load(std::memory_order_relaxed);
}

}  // namespace durable_io
}  // namespace fbdetect
