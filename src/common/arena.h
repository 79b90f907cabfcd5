// A bump allocator for funnel and decode scratch.
//
// The parallel funnel allocates short-lived scratch (decode buffers,
// aligned-pair gathers) on every task; with 8 workers those allocations
// contend on the global malloc arena and fragment it. This arena hands out
// memory by bumping a pointer through geometrically-growing blocks and frees
// nothing until a scope rewinds — allocation is ~4 instructions and
// thread-private.
//
// Lifetime rules (see DESIGN.md §13):
// * One arena per thread (Arena::ThreadLocal()), or one owned per worker.
// * Scratch is claimed through an ArenaScope, which records the arena's
//   position on entry and rewinds it on destruction. Scopes nest like stack
//   frames: inner scopes must be destroyed before outer ones (guaranteed by
//   C++ scoping when ArenaScope lives on the stack).
// * Spans returned by MakeSpan are invalidated by the scope's destruction.
//   Never store them beyond the scope, never hand them to another thread.
// * The arena never runs destructors; element types must be trivial.
#ifndef FBDETECT_SRC_COMMON_ARENA_H_
#define FBDETECT_SRC_COMMON_ARENA_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "src/common/check.h"

namespace fbdetect {

class Arena {
 public:
  // Block sizes are chosen for funnel scratch: a 1440-point analysis window
  // decodes into ~23 KiB of timestamps + values, so the first block already
  // fits several series.
  static constexpr size_t kMinBlockBytes = 64 * 1024;
  static constexpr size_t kAlignment = 64;  // One cache line.

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // The calling thread's private arena. Safe to use from pool workers and
  // the calling thread of ParallelFor alike; each sees its own instance.
  static Arena& ThreadLocal() {
    static thread_local Arena arena;
    return arena;
  }

  // Uninitialized storage for `bytes`, 64-byte aligned.
  void* AllocateBytes(size_t bytes) {
    bytes = (bytes + kAlignment - 1) & ~(kAlignment - 1);
    if (blocks_.empty() || used_ + bytes > blocks_.back().size) {
      NextBlock(bytes);
    }
    void* ptr = blocks_.back().base + used_;
    used_ += bytes;
    return ptr;
  }

  // A zero-initialized span of `count` elements. T must be trivially
  // copyable and trivially destructible: the arena never runs destructors.
  template <typename T>
  std::span<T> MakeSpan(size_t count) {
    std::span<T> span = MakeUninitializedSpan<T>(count);
    if (!span.empty()) {
      std::memset(static_cast<void*>(span.data()), 0, count * sizeof(T));
    }
    return span;
  }

  // Uninitialized variant for buffers the caller fully overwrites.
  template <typename T>
  std::span<T> MakeUninitializedSpan(size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(std::is_trivially_destructible_v<T>);
    if (count == 0) {
      return {};
    }
    return {static_cast<T*>(AllocateBytes(count * sizeof(T))), count};
  }

  // Total bytes currently reserved from malloc (telemetry / tests).
  size_t reserved_bytes() const { return reserved_; }

 private:
  friend class ArenaScope;

  struct Block {
    std::unique_ptr<uint8_t[]> storage;
    uint8_t* base = nullptr;  // 64-byte-aligned start within `storage`.
    size_t size = 0;          // Usable bytes after alignment.
  };

  struct Mark {
    size_t block_count;
    size_t used;
  };

  Mark Position() const { return {blocks_.size(), used_}; }

  void Rewind(Mark mark) {
    FBD_DCHECK(mark.block_count <= blocks_.size());
    // Blocks grown since the mark are dropped; the geometric growth schedule
    // means the next scope that needs that much lands in one fresh block.
    // The first block stays even when the mark predates it (such a mark has
    // used == 0), so a scope per call on an empty arena does not allocate,
    // zero and free a block on every call.
    while (blocks_.size() > std::max<size_t>(mark.block_count, 1)) {
      reserved_ -= blocks_.back().size;
      blocks_.pop_back();
    }
    used_ = mark.used;
  }

  void NextBlock(size_t min_bytes) {
    size_t bytes = blocks_.empty() ? kMinBlockBytes : blocks_.back().size * 2;
    if (bytes < min_bytes) {
      bytes = min_bytes;
    }
    Block block;
    block.storage = std::make_unique<uint8_t[]>(bytes + kAlignment);
    const uintptr_t aligned =
        (reinterpret_cast<uintptr_t>(block.storage.get()) + kAlignment - 1) &
        ~(uintptr_t{kAlignment} - 1);
    block.base = reinterpret_cast<uint8_t*>(aligned);
    block.size = bytes;
    blocks_.push_back(std::move(block));
    used_ = 0;
    reserved_ += bytes;
  }

  std::vector<Block> blocks_;
  size_t used_ = 0;  // Bump offset into blocks_.back().
  size_t reserved_ = 0;
};

// RAII mark/rewind over an Arena. All spans made through the scope (or from
// the arena while the scope is alive) die when the scope does.
class ArenaScope {
 public:
  explicit ArenaScope(Arena& arena) : arena_(arena), mark_(arena.Position()) {}
  ~ArenaScope() { arena_.Rewind(mark_); }

  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

  template <typename T>
  std::span<T> MakeSpan(size_t count) {
    return arena_.MakeSpan<T>(count);
  }

  template <typename T>
  std::span<T> MakeUninitializedSpan(size_t count) {
    return arena_.MakeUninitializedSpan<T>(count);
  }

 private:
  Arena& arena_;
  Arena::Mark mark_;
};

}  // namespace fbdetect

#endif  // FBDETECT_SRC_COMMON_ARENA_H_
