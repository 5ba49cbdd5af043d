// Route construction on mesh-of-trees networks.
//
// Tree routing is deterministic: descending from a root to leaf `l`
// follows l's binary representation; ascending follows parent links. The
// paper's schemes compose three kinds of segments:
//
//  * HP / Theorem 3 (square sqrt(M) x sqrt(M), modules at leaves):
//      P_l -> M_(i,j):  down RT(l) to leaf (l,j), up CT(j) to its root,
//      down CT(j) to leaf (i,j), module port. Reply reverses.
//      Optionally turn around at the lowest common ancestor of rows l and
//      i inside CT(j) instead of the root (an ablation; the paper routes
//      via the root): both column legs are cut to bit_width(l ^ i) edges.
//  * LPP / crossbar (modules at column roots): down RT(l) to leaf (l,j),
//      up CT(j) to the root, module port there.
//
// Every route is written in closed form by one writer. Edge i of a
// descent to leaf x of a 2^k-leaf tree is heap position
// (2^k + x) >> (k-1-i); edge i of an ascent from leaf x is
// (2^k + x) >> i. The reply is the request minus its port, reversed,
// with each edge's direction bit flipped: a descent to x reversed and
// flipped is the ascent from x, and the other way round, so the reply is
// three segments of the same two forms. write_round_trip writes the
// request, the port and the reply into one caller-sized buffer, segment
// by segment. On x86-64 hosts with AVX2 (util::have_avx2) it computes
// four edges per variable shift and store; other hosts run the scalar
// loop, write_round_trip_scalar, which stays callable as the reference
// the kernel is tested against. descend, ascend and reversed build the
// same segments edge by edge: the independent reference for both.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "network/topology.hpp"

namespace pramsim::net {

using Path = std::vector<EdgeKey>;

/// Edges for descending tree (kind, tree) from the root to leaf index
/// `leaf` (0-based), tree over `n_leaves` leaves (power of two).
[[nodiscard]] Path descend(TreeKind kind, std::uint32_t tree,
                           std::uint32_t leaf, std::uint32_t n_leaves);

/// Edges for ascending from leaf `leaf` to the root.
[[nodiscard]] Path ascend(TreeKind kind, std::uint32_t tree,
                          std::uint32_t leaf, std::uint32_t n_leaves);

/// The same channel in the other direction (module ports have none).
[[nodiscard]] EdgeKey flipped(EdgeKey key);

/// Reverse a path, flipping each edge's direction (the reply route).
[[nodiscard]] Path reversed(const Path& path);

/// A request route in closed form: down row tree RT(proc_row) to its
/// leaf mod_col, up column tree CT(mod_col) `climb` edges from leaf
/// proc_row, down `climb` edges to leaf mod_row when `to_leaf` (HP),
/// then the port of `module`.
struct Route {
  std::uint32_t proc_row = 0;
  std::uint32_t mod_row = 0;  ///< the column-tree leaf `to_leaf` ends at
  std::uint32_t mod_col = 0;
  std::uint32_t module = 0;    ///< the port's dense module id
  std::uint8_t row_depth = 0;  ///< log2 of a row tree's leaves
  std::uint8_t col_depth = 0;  ///< log2 of a column tree's leaves
  std::uint8_t climb = 0;      ///< column-tree edges climbed
  bool to_leaf = false;        ///< descend back to leaf mod_row
};

/// HP route on a square side x side 2DMOT (side a power of two):
/// processor at RT(proc_row)'s root, module at leaf (mod_row, mod_col),
/// port id mod_row * side + mod_col; via the column root, or via the
/// rows' lowest common ancestor.
[[nodiscard]] Route hp_route(std::uint32_t side, std::uint32_t proc_row,
                             std::uint32_t mod_row, std::uint32_t mod_col,
                             bool lca_turnaround = false);

/// LPP / crossbar route: processor at RT(proc_row)'s root, module at
/// CT(mod_col)'s root, port id mod_col. Square (LPP, side x side) and
/// rectangular (crossbar, rows x cols) shapes, both powers of two.
[[nodiscard]] Route root_module_route(const MotShape& shape,
                                      std::uint32_t proc_row,
                                      std::uint32_t mod_col);

/// Hops of the request, the module port included.
[[nodiscard]] constexpr std::uint32_t request_hops(const Route& route) {
  return route.row_depth + (route.to_leaf ? 2U : 1U) * route.climb + 1;
}

/// Hops of the round trip: the request, then the reply without the port.
[[nodiscard]] constexpr std::uint32_t round_trip_hops(const Route& route) {
  return 2 * request_hops(route) - 1;
}

/// Write the route's round trip into `out`, which holds exactly
/// round_trip_hops(route) edges: the request (its last edge the module
/// port) and then the reply.
void write_round_trip(const Route& route, std::span<EdgeKey> out);

/// The same edges through the scalar loop only, on every host.
void write_round_trip_scalar(const Route& route, std::span<EdgeKey> out);

/// Full HP request route (hp_route's request half, port last).
[[nodiscard]] Path hp_request_path(std::uint32_t side, std::uint32_t proc_row,
                                   std::uint32_t mod_row,
                                   std::uint32_t mod_col,
                                   bool lca_turnaround = false);

/// LPP / crossbar request route (root_module_route's request half).
[[nodiscard]] Path root_module_request_path(const MotShape& shape,
                                            std::uint32_t proc_row,
                                            std::uint32_t mod_col);

}  // namespace pramsim::net
