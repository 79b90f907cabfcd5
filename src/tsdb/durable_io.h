// Syscall seam for the durable tier's file I/O (WAL + chunk store), with
// env-gated fault injection.
//
// The durable tier must degrade — not abort — when the filesystem under it
// misbehaves (DESIGN.md §16: a full disk or a flaky fsync turns the tier
// off, it does not take down detection). Proving that requires making
// write/fsync/rename fail on demand, which a real filesystem will not do in
// CI. Every durable-file syscall therefore routes through this shim; a
// failure plan — programmatic (tests) or from the FBD_FAIL_DURABLE_IO env
// variable (chaos CI) — makes the Nth call of one operation kind fail with
// EIO. With no plan armed the wrappers are direct passthroughs.
//
// Env syntax: FBD_FAIL_DURABLE_IO="<op>:<n>[:sticky]" where <op> is one of
// write|fsync|rename|open and the (1-based) <n>th call of that op fails.
// With ":sticky" every call from the Nth on fails — a dead disk, not a
// transient hiccup.
//
// Call counters are always maintained (relaxed atomics, one increment per
// syscall) so tests can assert that a code path really issued the syscall it
// promises — e.g. that WriteAheadLog::Rewrite fsyncs the parent directory.
#ifndef FBDETECT_SRC_TSDB_DURABLE_IO_H_
#define FBDETECT_SRC_TSDB_DURABLE_IO_H_

#include <sys/types.h>

#include <cstdint>

namespace fbdetect {
namespace durable_io {

enum class Op : int {
  kWrite = 0,
  kFsync,
  kRename,
  kOpen,
};
inline constexpr int kOpCount = 4;

// Wrappers with ::open/::write/::fsync/::rename semantics (errno set on
// failure). An armed failure plan makes the matching call fail with EIO
// without touching the file.
int Open(const char* path, int flags, mode_t mode);
ssize_t Write(int fd, const void* data, size_t size);
// Counted (and failed) under Op::kWrite — "write" covers both append styles.
ssize_t Pwrite(int fd, const void* data, size_t size, off_t offset);
int Fsync(int fd);
int Rename(const char* from, const char* to);

// Fills `data[0, size)` from offset 0 of `fd` with as many pread() calls as
// it takes, retrying EINTR: Linux moves at most 0x7ffff000 bytes per call,
// so a file of 2 GiB or more never arrives in one. False on a read error
// (errno set) or on a file shorter than `size` (errno EIO). Not counted or
// failed by injection.
bool ReadAll(int fd, uint8_t* data, size_t size);

// Arms a failure plan: the `nth` (1-based) future call of `op` fails; with
// `sticky`, every call from the nth on fails. Overrides any env plan.
void SetFailure(Op op, uint64_t nth, bool sticky = false);
// Disarms injection (including an env-derived plan) and resets counters.
void ClearFailure();

// Calls of `op` observed since the last ClearFailure (or process start).
uint64_t CallCount(Op op);
// Calls of `op` that were failed by injection.
uint64_t InjectedFailureCount(Op op);

}  // namespace durable_io
}  // namespace fbdetect

#endif  // FBDETECT_SRC_TSDB_DURABLE_IO_H_
