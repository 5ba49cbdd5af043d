// Random regular graphs as expanders — the substrate class behind
// Herley & Bilardi's (1988) deterministic BDN simulation, which the paper
// credits with achieving the Theta(log m/log log m) redundancy bound but
// faults for "the large constants of constructive expander graphs".
//
// A random d-regular graph is, with high probability, a near-Ramanujan
// expander; we build one with the configuration model (rejecting loops
// and multi-edges), then *measure* the properties the HB scheme relies
// on: connectivity, diameter O(log n), and the second eigenvalue of the
// normalized adjacency (estimated by deflated power iteration). The
// kHbExpander scheme (core::make_scheme) charges the measured diameter
// per protocol round.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace pramsim::net {

class RegularGraph {
 public:
  /// Random d-regular simple graph on n vertices (n*d even, d < n) via
  /// the configuration model with restarts. Deterministic given seed.
  RegularGraph(std::uint32_t n_vertices, std::uint32_t degree,
               std::uint64_t seed);

  [[nodiscard]] std::uint32_t vertices() const {
    return static_cast<std::uint32_t>(adjacency_.size());
  }
  [[nodiscard]] std::uint32_t degree() const { return degree_; }
  [[nodiscard]] const std::vector<std::uint32_t>& neighbors(
      std::uint32_t v) const {
    return adjacency_[v];
  }

  [[nodiscard]] bool connected() const;
  /// Exact diameter by BFS from every vertex (fine for n <= ~4096);
  /// returns 0 for a single vertex, asserts connectivity.
  [[nodiscard]] std::uint32_t diameter() const;
  /// BFS eccentricity from one vertex (cheap diameter lower bound).
  [[nodiscard]] std::uint32_t eccentricity(std::uint32_t source) const;

  /// |lambda_2| of the normalized adjacency A/d, estimated by power
  /// iteration orthogonal to the all-ones vector. < 1 for connected
  /// non-bipartite-ish graphs; small (~2*sqrt(d-1)/d) for good expanders.
  [[nodiscard]] double lambda2(std::uint32_t iterations = 200) const;

 private:
  std::uint32_t degree_;
  std::vector<std::vector<std::uint32_t>> adjacency_;
};

}  // namespace pramsim::net
