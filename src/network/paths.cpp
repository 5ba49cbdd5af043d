#include "network/paths.hpp"

#include "util/math.hpp"

namespace pramsim::net {

namespace {

void append_descend(Path& path, TreeKind kind, std::uint32_t tree,
                    std::uint32_t leaf, std::uint32_t n_leaves) {
  PRAMSIM_ASSERT(util::is_pow2(n_leaves));
  PRAMSIM_ASSERT(leaf < n_leaves);
  const int depth = util::ilog2_floor(n_leaves);
  std::uint32_t pos = 1;
  for (int d = depth - 1; d >= 0; --d) {
    pos = 2 * pos + ((leaf >> d) & 1U);
    path.push_back(tree_edge(kind, tree, pos, Direction::kDown));
  }
}

void append_ascend(Path& path, TreeKind kind, std::uint32_t tree,
                   std::uint32_t leaf, std::uint32_t n_leaves) {
  PRAMSIM_ASSERT(util::is_pow2(n_leaves));
  PRAMSIM_ASSERT(leaf < n_leaves);
  std::uint32_t pos = n_leaves + leaf;
  while (pos > 1) {
    path.push_back(tree_edge(kind, tree, pos, Direction::kUp));
    pos /= 2;
  }
}

}  // namespace

Path descend(TreeKind kind, std::uint32_t tree, std::uint32_t leaf,
             std::uint32_t n_leaves) {
  Path path;
  append_descend(path, kind, tree, leaf, n_leaves);
  return path;
}

Path ascend(TreeKind kind, std::uint32_t tree, std::uint32_t leaf,
            std::uint32_t n_leaves) {
  Path path;
  append_ascend(path, kind, tree, leaf, n_leaves);
  return path;
}

EdgeKey flipped(EdgeKey key) {
  if ((key.raw >> 62) != 3) {  // module ports are direction-less
    key.raw ^= (1ULL << 61);   // flip direction bit
  }
  return key;
}

Path reversed(const Path& path) {
  Path out;
  out.reserve(path.size());
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    out.push_back(flipped(*it));
  }
  return out;
}

void append_hp_request_path(Path& path, std::uint32_t side,
                            std::uint32_t proc_row, std::uint32_t mod_row,
                            std::uint32_t mod_col, bool lca_turnaround) {
  PRAMSIM_ASSERT(util::is_pow2(side));
  PRAMSIM_ASSERT(proc_row < side && mod_row < side && mod_col < side);
  // Segment 1: down the processor's row tree to leaf (proc_row, mod_col).
  append_descend(path, TreeKind::kRow, proc_row, mod_col, side);
  // Segment 2+3: within CT(mod_col), from leaf row proc_row to leaf row
  // mod_row, either via the root (paper) or via the LCA (ablation).
  if (!lca_turnaround) {
    append_ascend(path, TreeKind::kCol, mod_col, proc_row, side);
    append_descend(path, TreeKind::kCol, mod_col, mod_row, side);
  } else if (proc_row != mod_row) {
    std::uint32_t a = side + proc_row;
    std::uint32_t b = side + mod_row;
    // Ascend from a to the LCA.
    while (a != b) {
      if (a > b) {
        path.push_back(tree_edge(TreeKind::kCol, mod_col, a, Direction::kUp));
        a /= 2;
      } else {
        b /= 2;
      }
    }
    // Descend from the LCA (= a) to leaf mod_row: replay the low bits.
    const int total_depth = util::ilog2_floor(side);
    const int lca_depth = util::ilog2_floor(a);
    std::uint32_t pos = a;
    for (int d = total_depth - lca_depth - 1; d >= 0; --d) {
      pos = 2 * pos + ((mod_row >> d) & 1U);
      path.push_back(tree_edge(TreeKind::kCol, mod_col, pos,
                               Direction::kDown));
    }
  }
  // Final hop: the module's unit-bandwidth service port.
  path.push_back(module_port(mod_row * side + mod_col));
}

Path hp_request_path(std::uint32_t side, std::uint32_t proc_row,
                     std::uint32_t mod_row, std::uint32_t mod_col,
                     bool lca_turnaround) {
  Path path;
  append_hp_request_path(path, side, proc_row, mod_row, mod_col,
                         lca_turnaround);
  return path;
}

void append_root_module_request_path(Path& path, const MotShape& shape,
                                     std::uint32_t proc_row,
                                     std::uint32_t mod_col) {
  PRAMSIM_ASSERT(proc_row < shape.rows && mod_col < shape.cols);
  append_descend(path, TreeKind::kRow, proc_row, mod_col, shape.cols);
  append_ascend(path, TreeKind::kCol, mod_col, proc_row, shape.rows);
  path.push_back(module_port(mod_col));
}

Path root_module_request_path(const MotShape& shape, std::uint32_t proc_row,
                              std::uint32_t mod_col) {
  Path path;
  append_root_module_request_path(path, shape, proc_row, mod_col);
  return path;
}

}  // namespace pramsim::net
