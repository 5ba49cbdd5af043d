#include "network/paths.hpp"

#include <array>
#include <bit>

#include "util/isa.hpp"
#include "util/math.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace pramsim::net {

namespace {

/// One segment of a round trip: `count` edges, edge i at heap position
/// leaf >> (up ? i : count - 1 - i) of `base`'s kind, tree and direction.
/// An ascent from leaf x, reversed and flipped, is the descent to x, and
/// the other way round; the module port is one edge whose leaf is 0.
struct Segment {
  std::uint64_t base = 0;
  std::uint64_t leaf = 0;  ///< heap position of the segment's leaf
  std::uint32_t count = 0;
  bool up = false;
};

[[nodiscard]] Segment tree_segment(TreeKind kind, std::uint32_t tree,
                                   Direction dir, std::uint64_t leaf,
                                   std::uint32_t count) {
  return {.base = tree_edge(kind, tree, 0, dir).raw,
          .leaf = leaf,
          .count = count,
          .up = dir == Direction::kUp};
}

/// The round trip's segments in order: the request's row descent, column
/// ascent and (HP) column descent, the module port, then the reply's
/// three, each a request segment reversed and flipped. An absent
/// segment has no edges.
[[nodiscard]] std::array<Segment, 7> segments_of(const Route& route) {
  const std::uint64_t row_leaf = (1ULL << route.row_depth) + route.mod_col;
  const std::uint64_t col_from = (1ULL << route.col_depth) + route.proc_row;
  const std::uint64_t col_to = (1ULL << route.col_depth) + route.mod_row;
  const std::uint32_t back = route.to_leaf ? route.climb : 0U;
  using enum TreeKind;
  using enum Direction;
  return {{
      tree_segment(kRow, route.proc_row, kDown, row_leaf, route.row_depth),
      tree_segment(kCol, route.mod_col, kUp, col_from, route.climb),
      tree_segment(kCol, route.mod_col, kDown, col_to, back),
      {.base = module_port(route.module).raw, .count = 1},
      tree_segment(kCol, route.mod_col, kUp, col_to, back),
      tree_segment(kCol, route.mod_col, kDown, col_from, route.climb),
      tree_segment(kRow, route.proc_row, kUp, row_leaf, route.row_depth),
  }};
}

void segment_scalar(EdgeKey* at, const Segment& s) {
  for (std::uint32_t i = 0; i < s.count; ++i) {
    at[i].raw = s.base | (s.leaf >> (s.up ? i : s.count - 1 - i));
  }
}

#if defined(__x86_64__)

__attribute__((target("avx2"))) inline void store4(EdgeKey* at,
                                                   __m256i edges) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(at), edges);
}

/// segment_scalar, four edges per shift and store. A count that is not a
/// multiple of four ends with the last four edges, overlapping the chunk
/// before, so no store leaves the segment.
__attribute__((target("avx2"))) void segment_avx2(EdgeKey* at,
                                                  const Segment& s) {
  if (s.count < 4) {
    segment_scalar(at, s);
    return;
  }
  const auto count = static_cast<long long>(s.count);
  const long long dir = s.up ? 1 : -1;
  const __m256i base = _mm256_set1_epi64x(static_cast<long long>(s.base));
  const __m256i leaf = _mm256_set1_epi64x(static_cast<long long>(s.leaf));
  // The shifts of edges 0-3, i up and count - 1 - i down; each chunk
  // moves them by 4 * dir.
  const __m256i lanes = _mm256_setr_epi64x(0, 1, 2, 3);
  const __m256i first =
      s.up ? lanes : _mm256_sub_epi64(_mm256_set1_epi64x(count - 1), lanes);
  const __m256i step = _mm256_set1_epi64x(4 * dir);
  __m256i shift = first;
  std::uint32_t i = 0;
  for (; i + 4 <= s.count; i += 4) {
    store4(at + i, _mm256_or_si256(base, _mm256_srlv_epi64(leaf, shift)));
    shift = _mm256_add_epi64(shift, step);
  }
  if (i < s.count) {
    shift = _mm256_add_epi64(first, _mm256_set1_epi64x((count - 4) * dir));
    store4(at + s.count - 4,
           _mm256_or_si256(base, _mm256_srlv_epi64(leaf, shift)));
  }
}

__attribute__((target("avx2"))) void write_round_trip_avx2(
    const Route& route, EdgeKey* at) {
  for (const Segment& s : segments_of(route)) {
    segment_avx2(at, s);
    at += s.count;
  }
}

#endif

/// A request route through the writer: its round trip's first half.
[[nodiscard]] Path request_half(const Route& route) {
  Path path(round_trip_hops(route));
  write_round_trip(route, path);
  path.resize(request_hops(route));
  return path;
}

}  // namespace

Path descend(TreeKind kind, std::uint32_t tree, std::uint32_t leaf,
             std::uint32_t n_leaves) {
  PRAMSIM_ASSERT(util::is_pow2(n_leaves));
  PRAMSIM_ASSERT(leaf < n_leaves);
  Path path;
  std::uint32_t pos = 1;
  for (int d = util::ilog2_floor(n_leaves) - 1; d >= 0; --d) {
    pos = 2 * pos + ((leaf >> d) & 1U);
    path.push_back(tree_edge(kind, tree, pos, Direction::kDown));
  }
  return path;
}

Path ascend(TreeKind kind, std::uint32_t tree, std::uint32_t leaf,
            std::uint32_t n_leaves) {
  PRAMSIM_ASSERT(util::is_pow2(n_leaves));
  PRAMSIM_ASSERT(leaf < n_leaves);
  Path path;
  for (std::uint32_t pos = n_leaves + leaf; pos > 1; pos /= 2) {
    path.push_back(tree_edge(kind, tree, pos, Direction::kUp));
  }
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

Route hp_route(std::uint32_t side, std::uint32_t proc_row,
               std::uint32_t mod_row, std::uint32_t mod_col,
               bool lca_turnaround) {
  PRAMSIM_ASSERT(std::has_single_bit(side));
  PRAMSIM_ASSERT(proc_row < side && mod_row < side && mod_col < side);
  const auto depth = static_cast<std::uint8_t>(std::countr_zero(side));
  return {.proc_row = proc_row,
          .mod_row = mod_row,
          .mod_col = mod_col,
          .module = mod_row * side + mod_col,
          .row_depth = depth,
          .col_depth = depth,
          .climb = lca_turnaround ? static_cast<std::uint8_t>(
                                        std::bit_width(proc_row ^ mod_row))
                                  : depth,
          .to_leaf = true};
}

Route root_module_route(const MotShape& shape, std::uint32_t proc_row,
                        std::uint32_t mod_col) {
  PRAMSIM_ASSERT(std::has_single_bit(shape.rows) &&
                 std::has_single_bit(shape.cols));
  PRAMSIM_ASSERT(proc_row < shape.rows && mod_col < shape.cols);
  const auto col_depth =
      static_cast<std::uint8_t>(std::countr_zero(shape.rows));
  return {.proc_row = proc_row,
          .mod_col = mod_col,
          .module = mod_col,
          .row_depth = static_cast<std::uint8_t>(std::countr_zero(shape.cols)),
          .col_depth = col_depth,
          .climb = col_depth,
          .to_leaf = false};
}

void write_round_trip(const Route& route, std::span<EdgeKey> out) {
#if defined(__x86_64__)
  if (util::have_avx2()) {
    PRAMSIM_ASSERT(out.size() == round_trip_hops(route));
    write_round_trip_avx2(route, out.data());
    return;
  }
#endif
  write_round_trip_scalar(route, out);
}

void write_round_trip_scalar(const Route& route, std::span<EdgeKey> out) {
  PRAMSIM_ASSERT(out.size() == round_trip_hops(route));
  EdgeKey* at = out.data();
  for (const Segment& s : segments_of(route)) {
    segment_scalar(at, s);
    at += s.count;
  }
}

Path hp_request_path(std::uint32_t side, std::uint32_t proc_row,
                     std::uint32_t mod_row, std::uint32_t mod_col,
                     bool lca_turnaround) {
  return request_half(hp_route(side, proc_row, mod_row, mod_col,
                               lca_turnaround));
}

Path root_module_request_path(const MotShape& shape, std::uint32_t proc_row,
                              std::uint32_t mod_col) {
  return request_half(root_module_route(shape, proc_row, mod_col));
}

}  // namespace pramsim::net
