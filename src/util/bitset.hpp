// DynamicBitset: a fixed-capacity-at-construction bitset sized at runtime.
//
// Used on hot paths of the protocol schedulers (live-variable masks,
// module-busy masks) where std::vector<bool> is too slow to scan and
// std::bitset requires a compile-time size.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "util/assert.hpp"

namespace pramsim::util {

class DynamicBitset {
 public:
  DynamicBitset() = default;
  explicit DynamicBitset(std::size_t n_bits, bool value = false)
      : n_bits_(n_bits),
        words_((n_bits + 63) / 64, value ? ~0ULL : 0ULL) {
    trim();
  }

  [[nodiscard]] std::size_t size() const { return n_bits_; }

  void set(std::size_t i) {
    PRAMSIM_DASSERT(i < n_bits_);
    words_[i >> 6] |= (1ULL << (i & 63));
  }

  void reset(std::size_t i) {
    PRAMSIM_DASSERT(i < n_bits_);
    words_[i >> 6] &= ~(1ULL << (i & 63));
  }

  void assign(std::size_t i, bool v) { v ? set(i) : reset(i); }

  [[nodiscard]] bool test(std::size_t i) const {
    PRAMSIM_DASSERT(i < n_bits_);
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }

  /// Number of set bits.
  [[nodiscard]] std::size_t count() const {
    std::size_t total = 0;
    for (const std::uint64_t w : words_) {
      total += static_cast<std::size_t>(std::popcount(w));
    }
    return total;
  }

  [[nodiscard]] bool any() const {
    for (const std::uint64_t w : words_) {
      if (w != 0) {
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] bool none() const { return !any(); }

  void set_all() {
    for (auto& w : words_) {
      w = ~0ULL;
    }
    trim();
  }

  /// Index of the first set bit at or after `from`, or size() if none.
  [[nodiscard]] std::size_t find_next(std::size_t from) const {
    if (from >= n_bits_) {
      return n_bits_;
    }
    std::size_t word_idx = from >> 6;
    std::uint64_t w = words_[word_idx] & (~0ULL << (from & 63));
    while (true) {
      if (w != 0) {
        const std::size_t bit =
            (word_idx << 6) +
            static_cast<std::size_t>(std::countr_zero(w));
        return bit < n_bits_ ? bit : n_bits_;
      }
      if (++word_idx == words_.size()) {
        return n_bits_;
      }
      w = words_[word_idx];
    }
  }

  friend bool operator==(const DynamicBitset&, const DynamicBitset&) = default;

 private:
  void trim() {
    const std::size_t tail = n_bits_ & 63;
    if (tail != 0 && !words_.empty()) {
      words_.back() &= (1ULL << tail) - 1;
    }
  }

  std::size_t n_bits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace pramsim::util
