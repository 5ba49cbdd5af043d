// Bump arena for per-step scratch storage.
//
// The hot serve path (pram::PlanBuilder and the native AccessPlan
// implementations) rebuilds the same families of arrays every P-RAM step.
// Allocating them from the heap each step dominated the serve loop; the
// arena hands out typed spans from reusable blocks and recycles the whole
// lot with one reset() per step, so a warmed-up arena performs zero heap
// allocations regardless of how many steps it serves.
//
// Spans returned by alloc() are valid until the next reset(); blocks are
// never shrunk, so pointers handed out between resets stay stable even as
// further allocations land in later blocks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

namespace pramsim::util {

class Arena {
 public:
  explicit Arena(std::size_t initial_bytes = 4096)
      : initial_bytes_(initial_bytes < 64 ? 64 : initial_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Recycle every span handed out so far; capacity is retained.
  void reset() {
    block_ = 0;
    used_ = 0;
  }

  /// Uninitialized storage for `count` objects of trivial type T. The
  /// caller fills the span; contents do not survive reset().
  template <typename T>
  [[nodiscard]] std::span<T> alloc(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena storage is recycled without running destructors");
    if (count == 0) {
      return {};
    }
    void* p = raw_alloc(count * sizeof(T), alignof(T));
    return {static_cast<T*>(p), count};
  }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t capacity = 0;
  };

  void* raw_alloc(std::size_t bytes, std::size_t align) {
    while (block_ < blocks_.size()) {
      Block& b = blocks_[block_];
      const std::size_t aligned = (used_ + align - 1) & ~(align - 1);
      if (aligned + bytes <= b.capacity) {
        used_ = aligned + bytes;
        return b.data.get() + aligned;
      }
      ++block_;
      used_ = 0;
    }
    // Grow geometrically so long-lived builders converge to one block.
    std::size_t capacity = blocks_.empty() ? initial_bytes_
                                           : blocks_.back().capacity * 2;
    while (capacity < bytes + align) {
      capacity *= 2;
    }
    blocks_.push_back({std::make_unique<std::byte[]>(capacity), capacity});
    block_ = blocks_.size() - 1;
    const auto base = reinterpret_cast<std::uintptr_t>(
        blocks_.back().data.get());
    const std::size_t aligned = ((base + align - 1) & ~(align - 1)) - base;
    used_ = aligned + bytes;
    return blocks_.back().data.get() + aligned;
  }

  std::size_t initial_bytes_;
  std::vector<Block> blocks_;
  std::size_t block_ = 0;  ///< index of the block currently bumping
  std::size_t used_ = 0;   ///< bytes used in the current block
};

}  // namespace pramsim::util
