// Chunked bump allocator for per-solve scratch.
//
// The LP hot loops (lp/revised_simplex.cc) burn a surprising share of
// their time in malloc: the B⁻¹ column memo and the re-pricing buffers
// used to be re-allocated per factorization. An Arena turns all of that
// into pointer bumps against a few long-lived chunks: allocation is a
// couple of arithmetic ops, Reset() makes every chunk reusable without
// returning memory to the OS, and repeated solve/reset cycles of the same
// problem stabilize to zero allocator traffic.
//
// Chunks are sized to the demand, not to a fixed floor: a chunk is as big
// as the request that opened it (or min_chunk_bytes, 0 by default), and
// when a cycle outgrows the chunks it started with, Reset() folds them
// into one chunk holding exactly that cycle's allocations. An arena
// serving an LP that needs a few hundred bytes therefore holds a few
// hundred bytes — a process keeping thousands of compiled bounds resident
// pays for what their solves use, nothing more — and a growing LP (cut
// rounds appending rows) does not strand its outgrown chunks.
//
// Blocks are aligned to kArenaAlign (32 bytes) so double arrays can be
// loaded with aligned AVX2 moves (lp/kernels.h) and long-double arrays
// start on a cache-friendly boundary. Allocations are uninitialized, and
// so are the chunks (no zero fill): pages a solve never writes are never
// touched. Callers that need zeroed memory fill it themselves (usually
// with a value they were about to write anyway).
//
// Not thread-safe: one Arena per solver instance, matching the
// single-threaded-per-instance contract of the LP solver.
#ifndef LPB_UTIL_ARENA_H_
#define LPB_UTIL_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace lpb {

inline constexpr std::size_t kArenaAlign = 32;

class Arena {
 public:
  explicit Arena(std::size_t min_chunk_bytes = 0)
      : min_chunk_bytes_(min_chunk_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Returns a kArenaAlign-aligned uninitialized array of `count` Ts.
  // T must be trivially destructible (the arena never runs destructors).
  template <typename T>
  T* AllocArray(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena memory is reclaimed without running destructors");
    return static_cast<T*>(AllocBytes(count * sizeof(T)));
  }

  // Makes the memory reusable. Previously returned pointers are invalid
  // after this (the memory is handed out again). No chunk is freed while
  // the request shapes repeat, so a solver that resets and re-allocates
  // the same shapes touches the allocator only on its first cycle. When
  // the last cycle outgrew the chunks it started with (a grown LP), they
  // are all replaced by one chunk of exactly the bytes that cycle used.
  void Reset() {
    if (reset_chunks_ > 0 && chunks_.size() > reset_chunks_) {
      std::size_t used = 0;
      for (const Chunk& chunk : chunks_) used += chunk.used;
      chunks_.clear();
      chunks_.push_back(NewChunk(used));
    }
    reset_chunks_ = chunks_.size();
    current_ = 0;
    for (Chunk& chunk : chunks_) chunk.used = 0;
  }

  // Bytes currently held (capacity, not live allocations).
  std::size_t CapacityBytes() const {
    std::size_t total = 0;
    for (const Chunk& chunk : chunks_) total += chunk.size;
    return total;
  }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
    // The first kArenaAlign-aligned offset inside data.
    std::size_t base = 0;
  };

  Chunk NewChunk(std::size_t rounded) {
    Chunk chunk;
    chunk.size = rounded > min_chunk_bytes_ ? rounded : min_chunk_bytes_;
    chunk.data = std::make_unique_for_overwrite<std::byte[]>(chunk.size +
                                                             kArenaAlign);
    const auto addr = reinterpret_cast<std::uintptr_t>(chunk.data.get());
    chunk.base = (kArenaAlign - addr % kArenaAlign) % kArenaAlign;
    return chunk;
  }

  void* AllocBytes(std::size_t bytes) {
    const std::size_t rounded = (bytes + kArenaAlign - 1) & ~(kArenaAlign - 1);
    while (current_ < chunks_.size()) {
      Chunk& chunk = chunks_[current_];
      if (chunk.used + rounded <= chunk.size) {
        void* p = chunk.data.get() + chunk.base + chunk.used;
        chunk.used += rounded;
        return p;
      }
      ++current_;
    }
    // New chunk: at least min_chunk_bytes_, and big enough for this
    // request outright (huge requests get a dedicated chunk rather than
    // an error path).
    Chunk chunk = NewChunk(rounded);
    chunk.used = rounded;
    chunks_.push_back(std::move(chunk));
    current_ = chunks_.size() - 1;
    return chunks_.back().data.get() + chunks_.back().base;
  }

  std::size_t min_chunk_bytes_;
  std::size_t current_ = 0;
  std::size_t reset_chunks_ = 0;  // chunks_.size() at the last Reset
  std::vector<Chunk> chunks_;
};

}  // namespace lpb

#endif  // LPB_UTIL_ARENA_H_
