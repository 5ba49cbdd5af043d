// Reusable open-addressing hash map with O(1) clear.
//
// The serve path needs small per-step maps (batch dedup tables, the
// scheduler's per-round module claims) that used to be freshly constructed
// std::unordered_maps — a heap allocation storm at every step. ScratchMap
// keeps its slot arrays alive across steps and invalidates old entries by
// bumping an epoch counter, so clear() is one increment and a warmed-up
// map never allocates.
//
// Layout: a slot is a (key, epoch) tag in one array and a value in a
// parallel one, so a probe walks tags only; with 32-bit keys and values a
// slot takes 12 bytes. The slot index is the top bits of key times
// 2^64/phi (one multiply), and the table is kept at most a quarter full
// so linear probes stay short. Keys are 32-bit (variables, modules) or
// 64-bit (the router's EdgeKeys).
//
// The epoch is 16 bits: when it wraps, every tag is reset, so no entry
// from before a clear() can read as live. That pass costs one sweep of
// the tags per 65,536 clears.
//
// Live entries are additionally threaded through an insertion-order list,
// so iteration order is the insertion order — deterministic across
// platforms and standard libraries, unlike unordered_map.
#pragma once

#include <bit>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace pramsim::util {

template <typename Key, typename Value>
class ScratchMap {
  static_assert(std::is_same_v<Key, std::uint32_t> ||
                std::is_same_v<Key, std::uint64_t>);

 public:
  /// Drop all entries; capacity and allocations are retained.
  void clear() {
    touched_.clear();
    ++epoch_;
    if (epoch_ == 0) {
      for (Tag& tag : tags_) {
        tag.epoch = 0;
      }
      epoch_ = 1;
    }
  }

  /// Ensure capacity for `n` live entries without rehashing mid-step.
  void reserve(std::size_t n) {
    std::size_t want = kMinSlots;
    while (want < 4 * n) {
      want *= 2;
    }
    if (want > tags_.size()) {
      rehash(want);
    }
  }

  /// Insert key with `init` if absent. Returns (value, inserted-fresh).
  std::pair<Value*, bool> try_emplace(Key key, Value init) {
    if (4 * (touched_.size() + 1) > tags_.size()) {
      rehash(tags_.empty() ? kMinSlots : tags_.size() * 2);
    }
    const std::size_t i = probe(key);
    if (tags_[i].epoch == epoch_) {
      return {&values_[i], false};
    }
    tags_[i] = {key, epoch_};
    values_[i] = std::move(init);
    touched_.push_back(static_cast<std::uint32_t>(i));
    return {&values_[i], true};
  }

  /// Pointer to the value for `key`, or nullptr when absent.
  [[nodiscard]] Value* find(Key key) {
    if (tags_.empty()) {
      return nullptr;
    }
    const std::size_t i = probe(key);
    return tags_[i].epoch == epoch_ ? &values_[i] : nullptr;
  }

  [[nodiscard]] std::size_t size() const { return touched_.size(); }

  /// Live slot indices in insertion order (use key_at/value_at).
  [[nodiscard]] const std::vector<std::uint32_t>& touched() const {
    return touched_;
  }
  [[nodiscard]] Key key_at(std::uint32_t slot) const {
    return tags_[slot].key;
  }
  [[nodiscard]] Value& value_at(std::uint32_t slot) { return values_[slot]; }
  [[nodiscard]] const Value& value_at(std::uint32_t slot) const {
    return values_[slot];
  }

 private:
  struct Tag {
    Key key = 0;
    std::uint16_t epoch = 0;  ///< live iff == the map's epoch (never 0)
  };

  static constexpr std::size_t kMinSlots = 16;

  /// First live-with-key or free slot for `key` (linear probing from the
  /// multiplicative hash; the quarter load keeps probes short).
  [[nodiscard]] std::size_t probe(Key key) const {
    const std::size_t mask = tags_.size() - 1;
    std::size_t i = static_cast<std::size_t>(
        (static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ULL) >> shift_);
    while (tags_[i].epoch == epoch_ && tags_[i].key != key) {
      i = (i + 1) & mask;
    }
    return i;
  }

  /// Move the live entries into `capacity` fresh slots, keeping their
  /// insertion order.
  void rehash(std::size_t capacity) {
    PRAMSIM_ASSERT(std::has_single_bit(capacity));
    std::vector<Tag> old_tags = std::move(tags_);
    std::vector<Value> old_values = std::move(values_);
    tags_.assign(capacity, Tag{});
    values_.assign(capacity, Value{});
    shift_ = 64 - std::countr_zero(capacity);
    for (auto& slot : touched_) {
      const Key key = old_tags[slot].key;
      const std::size_t i = probe(key);
      tags_[i] = {key, epoch_};
      values_[i] = std::move(old_values[slot]);
      slot = static_cast<std::uint32_t>(i);
    }
  }

  std::vector<Tag> tags_;
  std::vector<Value> values_;
  std::vector<std::uint32_t> touched_;
  int shift_ = 64;
  std::uint16_t epoch_ = 1;
};

}  // namespace pramsim::util
