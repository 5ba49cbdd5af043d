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
//      via the root).
//  * LPP / crossbar (modules at column roots): down RT(l) to leaf (l,j),
//      up CT(j) to the root, module port there.
#pragma once

#include <cstdint>
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

/// Full HP request route on a square side x side 2DMOT: processor at
/// RT(proc_row)'s root, target module at leaf (mod_row, mod_col).
/// Includes the module-port edge as the final hop. `module_index` is the
/// dense module id (mod_row * side + mod_col) used for the port key.
[[nodiscard]] Path hp_request_path(std::uint32_t side, std::uint32_t proc_row,
                                   std::uint32_t mod_row,
                                   std::uint32_t mod_col,
                                   bool lca_turnaround = false);
/// Same route, appended to `path`, so a reused buffer need not allocate.
void append_hp_request_path(Path& path, std::uint32_t side,
                            std::uint32_t proc_row, std::uint32_t mod_row,
                            std::uint32_t mod_col, bool lca_turnaround);

/// LPP / crossbar request route: processor at RT(proc_row)'s root, module
/// at CT(mod_col)'s root. Works for square (LPP, side x side) and
/// rectangular (crossbar, rows x cols) shapes.
[[nodiscard]] Path root_module_request_path(const MotShape& shape,
                                            std::uint32_t proc_row,
                                            std::uint32_t mod_col);
/// Same route, appended to `path`.
void append_root_module_request_path(Path& path, const MotShape& shape,
                                     std::uint32_t proc_row,
                                     std::uint32_t mod_col);

}  // namespace pramsim::net
