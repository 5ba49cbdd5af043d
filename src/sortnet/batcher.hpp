// Batcher odd-even mergesort comparator networks.
//
// Alt, Hagerup, Mehlhorn & Preparata (1987) — reviewed in the paper's
// §1 — obtained the first deterministic BDN P-RAM simulation by routing
// each majority-protocol phase through a sorting network: requests are
// sorted by destination module, delivered, and replies sorted back,
// giving O(log n log m) time overall. This module provides the concrete
// network (all comparators ascending, so it is a true sorting network by
// the 0-1 principle) with exact depth and size accounting;
// core::make_scheme charges each kAltBdn protocol round its depth.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/assert.hpp"

namespace pramsim::sortnet {

/// One comparator: orders (lo, hi) ascending; lo < hi always.
struct Comparator {
  std::uint32_t lo;
  std::uint32_t hi;
};

/// A layered comparator network: comparators within a layer touch
/// disjoint lines and execute in parallel (depth = layer count).
class ComparatorNetwork {
 public:
  explicit ComparatorNetwork(std::uint32_t n_lines) : n_lines_(n_lines) {}

  [[nodiscard]] std::uint32_t lines() const { return n_lines_; }
  [[nodiscard]] std::size_t depth() const { return layers_.size(); }
  [[nodiscard]] std::size_t size() const;  ///< total comparators

  /// Begin a new parallel layer.
  void new_layer() { layers_.emplace_back(); }

  /// Append a comparator to the current layer; asserts line-disjointness
  /// within the layer and lo < hi < lines().
  void add(std::uint32_t lo, std::uint32_t hi);

  [[nodiscard]] const std::vector<std::vector<Comparator>>& layers() const {
    return layers_;
  }

  /// Run the network over `values` in place (ascending).
  template <typename T>
  void apply(std::span<T> values) const {
    PRAMSIM_ASSERT(values.size() == n_lines_);
    for (const auto& layer : layers_) {
      for (const auto& comp : layer) {
        if (values[comp.hi] < values[comp.lo]) {
          using std::swap;
          swap(values[comp.lo], values[comp.hi]);
        }
      }
    }
  }

 private:
  std::uint32_t n_lines_;
  std::vector<std::vector<Comparator>> layers_;
};

/// Batcher's odd-even mergesort network over n lines (n a power of two).
/// Depth is exactly log2(n) * (log2(n) + 1) / 2; all comparators point
/// ascending, so by the 0-1 principle the network sorts every input.
[[nodiscard]] ComparatorNetwork batcher_sort(std::uint32_t n_lines);

}  // namespace pramsim::sortnet
