// util::PagedRows — fixed-length rows keyed by a dense integer, stored in
// zero-filled pages.
//
// Every piece of sparse per-key state in the simulator lives in one of
// these tables: the majority scheme's copy rows, IDA's share rows, the
// trace oracle's committed-write image, the cache's var -> slot index
// and the scrub relocation overlay. Rows live in pages of as many whole
// rows as fit in 4 KiB (at least one; a power of two, so a shift finds
// the page). A page is allocated zero-filled by the first insert into
// any of its rows, and a present bit per row records which keys were
// inserted. The page directory and the bits grow only as far as the
// highest key inserted, so storage tracks the keys a run touches, not
// the key space.
//
// A row that is not present always reads all zero: pages start zeroed
// and erase() zeroes the row it drops. Pages never move, so row
// pointers stay valid until clear(). find() never allocates or grows
// anything, so threads may read and write rows the owning thread
// already inserted while it does not insert (the value phase's frozen
// structure rule).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "util/assert.hpp"

namespace pramsim::util {

template <typename T>
class PagedRows {
  static_assert(std::is_trivially_copyable_v<T>,
                "rows are zero-filled and serialized as raw bytes");

 public:
  explicit PagedRows(std::size_t row_len = 1) : row_len_(row_len) {
    PRAMSIM_ASSERT(row_len >= 1);
    const std::size_t rows_per_page = std::bit_floor(
        std::max<std::size_t>(kPageBytes / (sizeof(T) * row_len), 1));
    shift_ = static_cast<unsigned>(std::countr_zero(rows_per_page));
    row_mask_ = rows_per_page - 1;
  }

  /// Elements per row.
  [[nodiscard]] std::size_t row_len() const { return row_len_; }
  /// Rows present (inserted and not erased since the last clear()).
  [[nodiscard]] std::uint64_t count() const { return count_; }
  /// Page-directory length: one past the highest page an insert reached
  /// since the last clear() (pages below it may be unallocated).
  [[nodiscard]] std::size_t pages() const { return pages_.size(); }

  [[nodiscard]] bool contains(std::uint64_t key) const {
    const std::uint64_t word = key >> 6;
    return word < present_.size() && ((present_[word] >> (key & 63)) & 1);
  }

  /// The key's row when present, else nullptr. Never allocates.
  [[nodiscard]] const T* find(std::uint64_t key) const {
    return contains(key) ? slot(key) : nullptr;
  }
  [[nodiscard]] T* find(std::uint64_t key) {
    return contains(key) ? slot(key) : nullptr;
  }

  /// The key's row, made present first if it was not (its page is
  /// allocated zero-filled when absent; a fresh row reads all zero).
  /// Grows the directory and the bits, so only the owning thread calls
  /// it, and never while other threads use find().
  T* insert(std::uint64_t key) {
    if (contains(key)) {
      return slot(key);
    }
    const std::uint64_t page = key >> shift_;
    if (page >= pages_.size()) {
      pages_.resize(page + 1);
    }
    if (pages_[page] == nullptr) {
      pages_[page] = std::make_unique<T[]>((row_mask_ + 1) * row_len_);
    }
    const std::uint64_t word = key >> 6;
    if (word >= present_.size()) {
      present_.resize(word + 1, 0);
    }
    present_[word] |= 1ULL << (key & 63);
    ++count_;
    return slot(key);
  }

  /// Drop the key's row (zeroed, no longer present); no-op when absent.
  void erase(std::uint64_t key) {
    if (!contains(key)) {
      return;
    }
    std::fill_n(slot(key), row_len_, T{});
    present_[key >> 6] &= ~(1ULL << (key & 63));
    --count_;
  }

  /// Visit every present row in ascending key order as
  /// fn(key, std::span<const T> row).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t word = 0; word < present_.size(); ++word) {
      for (std::uint64_t bits = present_[word]; bits != 0;
           bits &= bits - 1) {
        const std::uint64_t key =
            word * 64 + static_cast<std::uint64_t>(std::countr_zero(bits));
        fn(key, std::span<const T>(slot(key), row_len_));
      }
    }
  }

  /// Drop every row and page.
  void clear() {
    pages_.clear();
    present_.clear();
    count_ = 0;
  }

 private:
  static constexpr std::size_t kPageBytes = 4096;

  /// The key's row storage; its page must exist.
  [[nodiscard]] T* slot(std::uint64_t key) const {
    return pages_[key >> shift_].get() + (key & row_mask_) * row_len_;
  }

  std::size_t row_len_;
  unsigned shift_ = 0;        ///< log2(rows per page)
  std::uint64_t row_mask_ = 0;  ///< rows per page - 1
  /// Page directory, indexed by key >> shift_; null = no row inserted.
  std::vector<std::unique_ptr<T[]>> pages_;
  std::vector<std::uint64_t> present_;  ///< one bit per present row
  std::uint64_t count_ = 0;             ///< set bits in present_
};

}  // namespace pramsim::util
