// Tests for the mesh-of-trees topologies, path construction, and the
// cycle-accurate router.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <unordered_set>
#include <vector>

#include "network/paths.hpp"
#include "network/router.hpp"
#include "network/topology.hpp"
#include "util/isa.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace pramsim::net {
namespace {

// ------------------------------------------------------- topology -------

TEST(Topology, SquareMotSummaryMatchesHandCounts) {
  // 4x4 2DMOT (the paper's Fig. 4), coalesced roots:
  // leaves 16; internal per tree 3; 8 trees -> 24, minus 4 coalesced = 20.
  const auto s = summarize(square_mot(4));
  EXPECT_EQ(s.leaves, 16u);
  EXPECT_EQ(s.switches, 20u);
  EXPECT_EQ(s.nodes, 36u);
  EXPECT_EQ(s.links, 48u);  // 8 trees x 6 edges
  EXPECT_EQ(s.max_degree, 4u);
  EXPECT_EQ(s.diameter_hops, 8u);
}

TEST(Topology, RectMotSummaryMatchesHandCounts) {
  // 2 x 8 crossbar-style MOT: row internal 2*(8-1)=14, col internal
  // 8*(2-1)=8 -> 22 switches; links 2*14 + 8*2 = 44.
  const auto s = summarize(rect_mot(2, 8));
  EXPECT_EQ(s.leaves, 16u);
  EXPECT_EQ(s.switches, 22u);
  EXPECT_EQ(s.nodes, 38u);
  EXPECT_EQ(s.links, 2u * 2 * 7 + 8u * 2 * 1);
  EXPECT_EQ(s.max_degree, 3u);
}

TEST(Topology, SwitchCountsMatchPaperAsymptotics) {
  // Fig. 8 claim: square sqrt(M) x sqrt(M) MOT introduces O(M) switches.
  for (std::uint32_t side : {8u, 16u, 32u, 64u}) {
    const auto s = summarize(square_mot(side));
    const double M = static_cast<double>(side) * side;
    EXPECT_LT(static_cast<double>(s.switches), 2.0 * M);
    EXPECT_GT(static_cast<double>(s.switches), 0.5 * M);
  }
  // Fig. 7 claim: n x M crossbar MOT uses O(nM) switches.
  for (std::uint32_t n : {4u, 8u, 16u}) {
    const std::uint32_t M = n * n;
    const auto s = summarize(rect_mot(n, M));
    const double nM = static_cast<double>(n) * M;
    EXPECT_LT(static_cast<double>(s.switches), 2.0 * nM);
    EXPECT_GT(static_cast<double>(s.switches), 0.5 * nM);
  }
}

class AdjacencyAuditTest
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t, bool>> {};

TEST_P(AdjacencyAuditTest, ExplicitGraphMatchesClosedForm) {
  const auto [rows, cols, coalesce] = GetParam();
  MotShape shape{rows, cols, coalesce};
  const auto summary = summarize(shape);
  const auto adj = build_adjacency(shape);
  EXPECT_EQ(adj.size(), summary.nodes);
  std::uint64_t degree_sum = 0;
  std::uint32_t max_degree = 0;
  for (const auto& neighbors : adj) {
    degree_sum += neighbors.size();
    max_degree = std::max<std::uint32_t>(
        max_degree, static_cast<std::uint32_t>(neighbors.size()));
    // no duplicate links
    std::set<std::uint32_t> distinct(neighbors.begin(), neighbors.end());
    EXPECT_EQ(distinct.size(), neighbors.size());
  }
  EXPECT_EQ(degree_sum, 2 * summary.links);
  EXPECT_EQ(max_degree, summary.max_degree);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AdjacencyAuditTest,
    ::testing::Values(std::make_tuple(4u, 4u, true),
                      std::make_tuple(8u, 8u, true),
                      std::make_tuple(16u, 16u, true),
                      std::make_tuple(4u, 4u, false),
                      std::make_tuple(2u, 8u, false),
                      std::make_tuple(8u, 32u, false),
                      std::make_tuple(16u, 64u, false)));

TEST(Topology, BoundedDegreeAtAllScales) {
  // The defining DMBDN constraint: degree stays <= 4 no matter the size.
  for (std::uint32_t side : {4u, 16u, 64u, 256u, 1024u}) {
    EXPECT_LE(summarize(square_mot(side)).max_degree, 4u) << side;
  }
}

TEST(Topology, AsciiSketchContainsTrees) {
  const auto sketch = ascii_sketch(square_mot(4));
  EXPECT_NE(sketch.find("RT0"), std::string::npos);
  EXPECT_NE(sketch.find("CT3"), std::string::npos);
  EXPECT_NE(sketch.find("(3,3)"), std::string::npos);
}

// ----------------------------------------------------------- paths ------

TEST(Paths, DescendFollowsBinaryDigits) {
  // Tree over 8 leaves; leaf 5 = 101b: root->right(3)->left(6)->right(13).
  const auto path = descend(TreeKind::kRow, 2, 5, 8);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0], tree_edge(TreeKind::kRow, 2, 3, Direction::kDown));
  EXPECT_EQ(path[1], tree_edge(TreeKind::kRow, 2, 6, Direction::kDown));
  EXPECT_EQ(path[2], tree_edge(TreeKind::kRow, 2, 13, Direction::kDown));
}

TEST(Paths, AscendIsDescendReversedModuloDirection) {
  const auto down = descend(TreeKind::kCol, 7, 11, 16);
  const auto up = ascend(TreeKind::kCol, 7, 11, 16);
  ASSERT_EQ(down.size(), up.size());
  for (std::size_t i = 0; i < down.size(); ++i) {
    const auto d = down[i];
    const auto u = up[up.size() - 1 - i];
    EXPECT_EQ(d.raw & ~(1ULL << 61), u.raw & ~(1ULL << 61));
    EXPECT_NE(d.raw & (1ULL << 61), u.raw & (1ULL << 61));
  }
}

TEST(Paths, HpRequestPathHasPaperLength) {
  // down log S + up log S + down log S + module port.
  const std::uint32_t S = 16;
  const auto path = hp_request_path(S, 3, 9, 12);
  EXPECT_EQ(path.size(), 3u * 4u + 1u);
  EXPECT_EQ(path.back(), module_port(9 * S + 12));
}

TEST(Paths, LcaTurnaroundNeverLonger) {
  const std::uint32_t S = 32;
  util::Rng rng(4);
  for (int trial = 0; trial < 50; ++trial) {
    const auto l = static_cast<std::uint32_t>(rng.below(S));
    const auto i = static_cast<std::uint32_t>(rng.below(S));
    const auto j = static_cast<std::uint32_t>(rng.below(S));
    const auto via_root = hp_request_path(S, l, i, j, false);
    const auto via_lca = hp_request_path(S, l, i, j, true);
    EXPECT_LE(via_lca.size(), via_root.size());
    EXPECT_EQ(via_lca.back(), via_root.back());
  }
}

TEST(Paths, LcaPathSameRowSkipsColumnTree) {
  // proc_row == mod_row: the LCA is the leaf itself; only the row descent
  // and the module port remain.
  const std::uint32_t S = 8;
  const auto path = hp_request_path(S, 5, 5, 2, true);
  EXPECT_EQ(path.size(), 3u + 1u);
}

TEST(Paths, ReversedFlipsDirectionsAndOrder) {
  const auto request = hp_request_path(8, 1, 6, 3);
  const auto reply = reversed(request);
  ASSERT_EQ(reply.size(), request.size());
  EXPECT_EQ(reply[0], request.back());  // module port is direction-less
  // Last reply edge is the first request edge with flipped direction.
  EXPECT_EQ(reply.back().raw, request.front().raw ^ (1ULL << 61));
}

TEST(Paths, RootModulePathLength) {
  const auto shape = rect_mot(8, 64);
  const auto path = root_module_request_path(shape, 5, 40);
  // log 64 down + log 8 up + port.
  EXPECT_EQ(path.size(), 6u + 3u + 1u);
  EXPECT_EQ(path.back(), module_port(40));
}

// ---------------------------------------------------- route writer ------

// `request` followed by the module port and the reply (the request
// reversed, directions flipped).
Path with_reply(Path request, EdgeKey port) {
  const Path reply = reversed(request);
  request.push_back(port);
  request.insert(request.end(), reply.begin(), reply.end());
  return request;
}

// An HP round trip built segment by segment: down RT(proc_row), up
// CT(mod_col) and down to leaf mod_row, both column legs cut to the
// rows' LCA when `lca`.
Path hp_reference(std::uint32_t side, std::uint32_t proc_row,
                  std::uint32_t mod_row, std::uint32_t mod_col, bool lca) {
  const Path up = ascend(TreeKind::kCol, mod_col, proc_row, side);
  const Path down = descend(TreeKind::kCol, mod_col, mod_row, side);
  // Levels from the two leaves up to the first node they share.
  std::ptrdiff_t climb = 0;
  while (((side + proc_row) >> climb) != ((side + mod_row) >> climb)) {
    ++climb;
  }
  if (!lca) {
    climb = static_cast<std::ptrdiff_t>(up.size());
  }
  Path request = descend(TreeKind::kRow, proc_row, mod_col, side);
  request.insert(request.end(), up.begin(), up.begin() + climb);
  request.insert(request.end(), down.end() - climb, down.end());
  return with_reply(std::move(request), module_port(mod_row * side + mod_col));
}

// A root-module round trip built segment by segment.
Path root_module_reference(const MotShape& shape, std::uint32_t proc_row,
                           std::uint32_t mod_col) {
  Path request = descend(TreeKind::kRow, proc_row, mod_col, shape.cols);
  const Path up = ascend(TreeKind::kCol, mod_col, proc_row, shape.rows);
  request.insert(request.end(), up.begin(), up.end());
  return with_reply(std::move(request), module_port(mod_col));
}

// Both writer bodies, each into a buffer of exactly the route's length,
// write `want`, whose length round_trip_hops predicts.
void expect_written(const Route& route, const Path& want) {
  ASSERT_EQ(round_trip_hops(route), want.size());
  Path fast(want.size());
  Path scalar(want.size());
  write_round_trip(route, fast);
  write_round_trip_scalar(route, scalar);
  EXPECT_EQ(fast, want);
  EXPECT_EQ(scalar, want);
}

TEST(RouteWriter, HpRoutesMatchTheSegmentReference) {
  RecordProperty("avx2", util::have_avx2() ? "yes" : "no");
  for (const std::uint32_t side : {4u, 8u, 16u}) {
    for (const bool lca : {false, true}) {
      for (std::uint32_t p = 0; p < side; ++p) {
        for (std::uint32_t i = 0; i < side; ++i) {
          for (std::uint32_t j = 0; j < side; ++j) {
            SCOPED_TRACE(::testing::Message()
                         << "side " << side << " lca " << lca << " route "
                         << p << " -> (" << i << ", " << j << ")");
            const Route route = hp_route(side, p, i, j, lca);
            const Path want = hp_reference(side, p, i, j, lca);
            expect_written(route, want);
            const Path request(want.begin(),
                               want.begin() + request_hops(route));
            EXPECT_EQ(hp_request_path(side, p, i, j, lca), request);
            if (HasFailure()) {
              return;
            }
          }
        }
      }
    }
  }
}

TEST(RouteWriter, RootModuleRoutesMatchTheSegmentReference) {
  RecordProperty("avx2", util::have_avx2() ? "yes" : "no");
  for (const MotShape& shape :
       {square_mot(4), square_mot(8), square_mot(16), rect_mot(2, 8),
        rect_mot(8, 64), rect_mot(16, 4), rect_mot(32, 2)}) {
    for (std::uint32_t p = 0; p < shape.rows; ++p) {
      for (std::uint32_t j = 0; j < shape.cols; ++j) {
        SCOPED_TRACE(::testing::Message()
                     << shape.rows << " x " << shape.cols << " route " << p
                     << " -> column " << j);
        const Route route = root_module_route(shape, p, j);
        const Path want = root_module_reference(shape, p, j);
        expect_written(route, want);
        const Path request(want.begin(), want.begin() + request_hops(route));
        EXPECT_EQ(root_module_request_path(shape, p, j), request);
        if (HasFailure()) {
          return;
        }
      }
    }
  }
}

// Both bodies against the segment reference on trees of 2 to 4,096
// leaves, the engine's sides included: segments shorter than one chunk,
// whole chunks and overlapping last chunks, LCA climbs of every height,
// and rectangular shapes whose row and column depths differ. The
// reference's length holds round_trip_hops to an edge-by-edge route.
TEST(RouteWriter, RoutesMatchTheSegmentReferenceAtDepths1To12) {
  RecordProperty("avx2", util::have_avx2() ? "yes" : "no");
  util::Rng rng(41);
  auto below = [&](std::uint32_t bound) {
    return static_cast<std::uint32_t>(rng.below(bound));
  };
  for (std::uint32_t depth = 1; depth <= 12; ++depth) {
    const std::uint32_t side = 1U << depth;
    for (std::uint32_t trial = 0; trial < 64; ++trial) {
      SCOPED_TRACE(::testing::Message()
                   << "depth " << depth << " trial " << trial);
      const std::uint32_t proc = below(side);
      const std::uint32_t row = below(side);
      const std::uint32_t col = below(side);
      const bool lca = trial % 2 == 1;
      expect_written(hp_route(side, proc, row, col, lca),
                     hp_reference(side, proc, row, col, lca));
      const std::uint32_t other = 1U << (1 + below(12));
      const std::uint32_t other_row = below(other);
      const std::uint32_t other_col = below(other);
      const MotShape wide = rect_mot(side, other);
      const MotShape tall = rect_mot(other, side);
      expect_written(root_module_route(wide, proc, other_col),
                     root_module_reference(wide, proc, other_col));
      expect_written(root_module_route(tall, other_row, col),
                     root_module_reference(tall, other_row, col));
      if (HasFailure()) {
        return;
      }
    }
  }
}

// ----------------------------------------------- first shared channel ---

// Route pairs of every length up to 64 on channels no other route uses,
// with one shared channel planted at every offset of the shorter route
// (a second one just after it in the same or the next chunk, and the
// same channels in the other direction before it): the kernel and the
// scalar loop both find the first, and the shorter length when none is
// shared. Each route sits in a vector of exactly its length, so a load
// past the shorter one would be a read past that vector (ASan).
TEST(FirstSharedChannel, KernelMatchesScalarAtEveryOffset) {
  RecordProperty("avx2", util::have_avx2() ? "yes" : "no");
  util::Rng rng(43);
  auto random_route = [&](std::size_t length, std::uint32_t tree) {
    Path route(length);
    for (EdgeKey& edge : route) {
      edge = tree_edge(TreeKind::kRow, tree,
                       static_cast<std::uint32_t>(2 + rng.below(1U << 20)),
                       Direction::kDown);
    }
    return route;
  };
  for (std::size_t length_a = 1; length_a <= 64; ++length_a) {
    for (std::uint32_t trial = 0; trial < 6; ++trial) {
      SCOPED_TRACE(::testing::Message()
                   << "length " << length_a << " trial " << trial);
      const Path a = random_route(length_a, 1);
      const Path b = random_route(1 + rng.below(64), 2);
      const std::size_t shorter = std::min(a.size(), b.size());
      EXPECT_EQ(first_shared_channel(a, b), shorter);
      EXPECT_EQ(first_shared_channel_scalar(a, b), shorter);
      for (std::size_t at = 0; at < shorter; ++at) {
        Path c = b;
        for (std::size_t before = 0; before < at; ++before) {
          c[before] = flipped(a[before]);
        }
        c[at] = a[at];
        const std::size_t again = at + 1 + rng.below(4);
        if (again < shorter) {
          c[again] = a[again];
        }
        EXPECT_EQ(first_shared_channel(a, c), at);
        EXPECT_EQ(first_shared_channel_scalar(a, c), at);
        EXPECT_EQ(first_shared_channel(c, a), at);
      }
      if (HasFailure()) {
        return;
      }
    }
  }
}

// ---------------------------------------------------------- router ------

TEST(Router, SinglePacketTakesPathLengthCycles) {
  std::vector<Packet> packets(1);
  packets[0].id = 0;
  packets[0].path = hp_request_path(16, 2, 7, 9);
  const auto hops = packets[0].path.size();
  const auto report = route_all(packets);
  EXPECT_EQ(report.delivered, 1u);
  EXPECT_EQ(report.cycles, hops);
  EXPECT_EQ(packets[0].delivered_at, hops);
  EXPECT_EQ(report.total_hops, hops);
}

TEST(Router, ModulePortSerializesContenders) {
  // k packets all ending at the same module port: last one is delayed by
  // at least k-1 service cycles.
  const std::uint32_t S = 16;
  const std::uint32_t k = 8;
  std::vector<Packet> packets(k);
  for (std::uint32_t p = 0; p < k; ++p) {
    packets[p].id = p;
    packets[p].path = hp_request_path(S, p, 3, 5);
  }
  const auto report = route_all(packets);
  EXPECT_EQ(report.delivered, k);
  std::uint64_t last = 0;
  for (const auto& p : packets) {
    last = std::max(last, p.delivered_at);
  }
  EXPECT_GE(last, 3u * 4u + k);  // path length + serialized port service
  EXPECT_GE(report.max_edge_queue, 2u);
}

TEST(Router, DisjointPathsDontInterfere) {
  // Packets in different rows to different columns/modules never share an
  // edge: all deliver in exactly path-length cycles.
  const std::uint32_t S = 16;
  std::vector<Packet> packets(S);
  for (std::uint32_t p = 0; p < S; ++p) {
    packets[p].id = p;
    packets[p].path = hp_request_path(S, p, p, p);
  }
  const auto report = route_all(packets);
  EXPECT_EQ(report.delivered, S);
  for (const auto& p : packets) {
    EXPECT_EQ(p.delivered_at, p.path.size());
  }
  EXPECT_EQ(report.max_edge_queue, 1u);
}

TEST(Router, InjectionTimeHonored) {
  std::vector<Packet> packets(1);
  packets[0].id = 0;
  packets[0].injected_at = 10;
  packets[0].path = descend(TreeKind::kRow, 0, 3, 8);
  const auto report = route_all(packets);
  EXPECT_EQ(packets[0].delivered_at, 10u + 3u);
  EXPECT_GE(report.cycles, 13u);
}

TEST(Router, FifoArbitrationIsDeterministic) {
  const std::uint32_t S = 32;
  util::Rng rng(5);
  auto make_packets = [&](std::uint64_t seed) {
    util::Rng local(seed);
    std::vector<Packet> packets(64);
    for (std::uint32_t p = 0; p < 64; ++p) {
      packets[p].id = p;
      packets[p].path = hp_request_path(
          S, static_cast<std::uint32_t>(local.below(S)),
          static_cast<std::uint32_t>(local.below(S)),
          static_cast<std::uint32_t>(local.below(S)));
    }
    return packets;
  };
  (void)rng;
  auto a = make_packets(9);
  auto b = make_packets(9);
  const auto ra = route_all(a);
  const auto rb = route_all(b);
  EXPECT_EQ(ra.cycles, rb.cycles);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].delivered_at, b[i].delivered_at);
  }
}

TEST(Router, AllPacketsDeliveredUnderHeavyRandomLoad) {
  const std::uint32_t S = 64;
  util::Rng rng(11);
  std::vector<Packet> packets(512);
  std::uint64_t expected_hops = 0;
  for (std::uint32_t p = 0; p < 512; ++p) {
    packets[p].id = p;
    packets[p].path = hp_request_path(
        S, static_cast<std::uint32_t>(rng.below(S)),
        static_cast<std::uint32_t>(rng.below(S)),
        static_cast<std::uint32_t>(rng.below(S)));
    expected_hops += packets[p].path.size();
  }
  const auto report = route_all(packets);
  EXPECT_EQ(report.delivered, 512u);
  EXPECT_EQ(report.total_hops, expected_hops);
  EXPECT_GT(report.mean_latency, 0.0);
  EXPECT_GE(report.max_latency, 3u * 6u + 1u);
}

TEST(Router, MaxCyclesStopsEarly) {
  std::vector<Packet> packets(1);
  packets[0].id = 0;
  packets[0].path = hp_request_path(16, 2, 7, 9);
  const auto report = route_all(packets, /*max_cycles=*/3);
  EXPECT_EQ(report.delivered, 0u);
  EXPECT_EQ(report.cycles, 3u);
  EXPECT_FALSE(packets[0].delivered());
  EXPECT_EQ(packets[0].next_edge, 3u);
}

TEST(Router, StartCycleOffsetsClock) {
  std::vector<Packet> packets(1);
  packets[0].id = 0;
  packets[0].path = descend(TreeKind::kRow, 0, 1, 4);
  const auto report = route_all(packets, 1000, /*start_cycle=*/100);
  EXPECT_EQ(report.cycles, 2u);
  EXPECT_EQ(packets[0].delivered_at, 102u);
}

TEST(Router, ReplyPathsAlsoRoute) {
  // Round trip: route the request leg, then the reversed reply leg
  // injected at the delivery time. Total time = 2x one-way + port.
  const auto request = hp_request_path(16, 4, 10, 2);
  std::vector<Packet> leg1(1);
  leg1[0].id = 0;
  leg1[0].path = request;
  const auto r1 = route_all(leg1);
  ASSERT_EQ(r1.delivered, 1u);

  std::vector<Packet> leg2(1);
  leg2[0].id = 1;
  leg2[0].path = reversed(request);
  leg2[0].injected_at = leg1[0].delivered_at;
  const auto r2 = route_all(leg2, 10'000);
  EXPECT_EQ(r2.delivered, 1u);
  EXPECT_EQ(leg2[0].delivered_at, 2 * request.size());
}

// Routing must not depend on the order packets are handed in: winners are
// ranked by (waiting_since, id), every packet claims one edge per cycle,
// and the report only sums and maxes. Route a heavy seeded batch and a
// shuffled copy (ids kept) through a max_cycles cut-off at a non-zero
// start cycle, then to completion, and compare every packet's written-back
// state after each call.
TEST(Router, OrderIndependentAndWritesBackInFlightState) {
  const std::uint32_t S = 32;
  const std::uint64_t start = 50;
  util::Rng rng(23);
  std::vector<Packet> packets(600);
  for (std::uint32_t p = 0; p < packets.size(); ++p) {
    packets[p].id = p;
    packets[p].injected_at = start - 4 + rng.below(12);  // some before start
    packets[p].path = hp_request_path(
        S, static_cast<std::uint32_t>(rng.below(S)),
        static_cast<std::uint32_t>(rng.below(S)),
        static_cast<std::uint32_t>(rng.below(S)), p % 3 == 0);
  }
  packets[7].next_edge = static_cast<std::uint32_t>(packets[7].path.size());
  packets[7].delivered_at = 9;  // already delivered: left alone
  packets[11].path.clear();     // empty path: delivered at the start cycle

  std::vector<Packet> shuffled = packets;
  rng.shuffle(shuffled);
  auto by_id = [](const std::vector<Packet>& in) {
    std::vector<const Packet*> out(in.size());
    for (const auto& p : in) {
      out[p.id] = &p;
    }
    return out;
  };
  auto expect_same = [&](const RouteReport& a, const RouteReport& b) {
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.total_hops, b.total_hops);
    EXPECT_EQ(a.max_edge_queue, b.max_edge_queue);
    EXPECT_EQ(a.mean_latency, b.mean_latency);
    EXPECT_EQ(a.max_latency, b.max_latency);
    const auto pa = by_id(packets);
    const auto pb = by_id(shuffled);
    for (std::uint32_t id = 0; id < pa.size(); ++id) {
      EXPECT_EQ(pa[id]->delivered_at, pb[id]->delivered_at) << id;
      EXPECT_EQ(pa[id]->next_edge, pb[id]->next_edge) << id;
      EXPECT_EQ(pa[id]->waiting_since, pb[id]->waiting_since) << id;
    }
  };

  // Cut off mid-flight: some packets are still queued or not injected.
  const RouteReport cut_a = route_all(packets, /*max_cycles=*/20, start);
  const RouteReport cut_b = route_all(shuffled, 20, start);
  expect_same(cut_a, cut_b);
  EXPECT_EQ(cut_a.cycles, 20u);
  EXPECT_GT(cut_a.delivered, 1u);
  EXPECT_LT(cut_a.delivered, packets.size() - 1);
  EXPECT_EQ(packets[7].delivered_at, 9u);
  EXPECT_EQ(packets[11].delivered_at, start);
  EXPECT_GE(cut_a.max_edge_queue, 2u);

  // Resume the same packets from where the cut left them.
  const std::uint64_t resume = start + cut_a.cycles;
  const RouteReport rest_a = route_all(packets, 1'000'000, resume);
  const RouteReport rest_b = route_all(shuffled, 1'000'000, resume);
  expect_same(rest_a, rest_b);
  EXPECT_EQ(cut_a.delivered + rest_a.delivered, packets.size() - 1);
  for (const auto& p : packets) {
    EXPECT_TRUE(p.delivered());
    EXPECT_EQ(p.next_edge, p.path.size());
  }
}

// ------------------------------------------- disjoint packet sets ------

enum class Net : std::uint8_t { kHp, kLpp, kCrossbar };

struct NetCase {
  Net net;
  std::uint32_t rows;  ///< processors (row trees)
  std::uint32_t cols;  ///< module columns (column trees)
};

// A round trip like the 2DMOT engine's: the request from processor
// `proc` to a module in column `col`, then the reply retracing it.
Path round_trip(const NetCase& nc, std::uint32_t proc, std::uint32_t col,
                util::Rng& rng) {
  Route route;
  if (nc.net == Net::kHp) {
    route = hp_route(nc.rows, proc,
                     static_cast<std::uint32_t>(rng.below(nc.rows)), col,
                     rng.below(3) == 0);
  } else {
    route = root_module_route(
        nc.net == Net::kLpp ? square_mot(nc.rows) : rect_mot(nc.rows, nc.cols),
        proc, col);
  }
  Path path(round_trip_hops(route));
  write_round_trip(route, path);
  return path;
}

// What routing the union of packet sets that share no channel reports,
// from the reports of routing each set alone.
RouteReport fold(const std::vector<RouteReport>& parts) {
  RouteReport out;
  double latency_sum = 0;
  for (const RouteReport& part : parts) {
    out.cycles = std::max(out.cycles, part.cycles);
    out.delivered += part.delivered;
    out.total_hops += part.total_hops;
    out.max_edge_queue = std::max(out.max_edge_queue, part.max_edge_queue);
    out.max_latency = std::max(out.max_latency, part.max_latency);
    latency_sum += part.mean_latency * static_cast<double>(part.delivered);
  }
  if (out.delivered > 0) {
    out.mean_latency = latency_sum / static_cast<double>(out.delivered);
  }
  return out;
}

void expect_same_report(const RouteReport& a, const RouteReport& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.total_hops, b.total_hops);
  EXPECT_EQ(a.max_edge_queue, b.max_edge_queue);
  EXPECT_EQ(a.max_latency, b.max_latency);
  EXPECT_DOUBLE_EQ(a.mean_latency, b.mean_latency);
}

void expect_same_packet(const Packet& a, const Packet& b) {
  EXPECT_EQ(a.delivered_at, b.delivered_at) << a.id;
  EXPECT_EQ(a.next_edge, b.next_edge) << a.id;
  EXPECT_EQ(a.waiting_since, b.waiting_since) << a.id;
}

class DisjointSetsTest : public ::testing::TestWithParam<NetCase> {};

// Eight packet sets on disjoint processor rows and module columns share
// no channel. Routing each set alone (sets of up to kScanPackets use the
// scan, larger ones the claim table) must leave every packet as routing
// their union once does (the claim table while more than kScanPackets
// are in flight), and the reports must fold to the union's: through a
// budget that cuts packets off mid-route, and again when the cut-off
// packets resume.
TEST_P(DisjointSetsTest, RoutingEachSetAloneEqualsRoutingTheirUnion) {
  const NetCase& nc = GetParam();
  constexpr std::uint32_t kSets = 8;
  const std::vector<std::uint32_t> sizes = {1, 2, 3, 5, 9, 17, 33, 40};
  const std::uint64_t start = 7;
  util::Rng rng(31 + static_cast<std::uint64_t>(nc.net));
  std::vector<std::vector<Packet>> sets(kSets);
  std::vector<Packet> all;
  for (std::uint32_t g = 0; g < kSets; ++g) {
    const std::uint32_t row_span = nc.rows / kSets;
    const std::uint32_t col_span = nc.cols / kSets;
    for (std::uint32_t k = 0; k < sizes[g]; ++k) {
      Packet packet;
      packet.id = static_cast<std::uint32_t>(all.size());
      packet.injected_at = start - 2 + rng.below(6);  // some before start
      packet.path = round_trip(
          nc, g * row_span + static_cast<std::uint32_t>(rng.below(row_span)),
          g * col_span + static_cast<std::uint32_t>(rng.below(col_span)),
          rng);
      sets[g].push_back(packet);
      all.push_back(packet);
    }
  }
  ASSERT_GT(all.size(), kScanPackets);
  ASSERT_GT(sizes.back(), kScanPackets);

  auto route_and_compare = [&](std::uint64_t max_cycles,
                               std::uint64_t from) {
    std::vector<RouteReport> parts;
    for (auto& set : sets) {
      parts.push_back(route_all(set, max_cycles, from));
    }
    const RouteReport whole = route_all(all, max_cycles, from);
    expect_same_report(fold(parts), whole);
    std::size_t i = 0;
    for (const auto& set : sets) {
      for (const Packet& packet : set) {
        expect_same_packet(packet, all[i++]);
      }
    }
    return whole;
  };

  const std::uint64_t budget = all[0].path.size() + 8;
  const RouteReport cut = route_and_compare(budget, start);
  EXPECT_EQ(cut.cycles, budget);
  EXPECT_GT(cut.delivered, sizes[0]);
  EXPECT_LT(cut.delivered, all.size());
  EXPECT_GE(cut.max_edge_queue, 2u);

  const RouteReport rest = route_and_compare(1'000'000, start + budget);
  EXPECT_EQ(cut.delivered + rest.delivered, all.size());
}

INSTANTIATE_TEST_SUITE_P(
    Router, DisjointSetsTest,
    ::testing::Values(NetCase{Net::kHp, 64, 64}, NetCase{Net::kLpp, 64, 64},
                      NetCase{Net::kCrossbar, 16, 128}),
    [](const ::testing::TestParamInfo<NetCase>& info) {
      switch (info.param.net) {
        case Net::kHp: return "hp";
        case Net::kLpp: return "lpp";
        case Net::kCrossbar: return "crossbar";
      }
      return "unknown";
    });

// The same contended packets, routed alone by the scan and, beside
// enough packets on channels of their own to keep more than
// kScanPackets in flight to the end, by the claim table: every packet
// ends the same, and the union's report is the fold of the two sets'.
// Seeded sets of 2 to kScanPackets packets with injections spread from
// one cycle to thirty, cut off by a budget and then resumed, exercise
// every way the scan runs ahead (to a meeting, an injection, the last
// arrival or the budget).
TEST(Router, ScanAndClaimTableAgree) {
  const NetCase nc{Net::kHp, 16, 16};
  std::uint32_t contended = 0;
  std::uint32_t cut_short = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    util::Rng rng(100 + seed);
    const std::uint64_t spread = std::vector<std::uint64_t>{1, 4, 30}[seed % 3];
    std::vector<Packet> scanned(2 + rng.below(kScanPackets - 1));
    for (std::uint32_t p = 0; p < scanned.size(); ++p) {
      scanned[p].id = p;
      scanned[p].injected_at = rng.below(spread);
      scanned[p].path = round_trip(
          nc, static_cast<std::uint32_t>(rng.below(4)),
          static_cast<std::uint32_t>(rng.below(3)), rng);
    }
    std::vector<Packet> tabled = scanned;

    // Route both copies from `from` within `max_cycles`.
    auto route_both = [&](std::uint64_t max_cycles, std::uint64_t from) {
      const RouteReport alone = route_all(scanned, max_cycles, from);
      // Each filler walks channels of a row tree no contended packet
      // uses, and is in flight until a cycle after the contended set's
      // route ends.
      std::vector<Packet> fillers(kScanPackets + 1);
      for (std::uint32_t f = 0; f < fillers.size(); ++f) {
        fillers[f].id = static_cast<std::uint32_t>(scanned.size()) + f;
        for (std::uint32_t pos = 2; pos < alone.cycles + 4; ++pos) {
          fillers[f].path.push_back(
              tree_edge(TreeKind::kRow, 1000 + f, pos, Direction::kDown));
        }
      }
      std::vector<Packet> both = tabled;
      both.insert(both.end(), fillers.begin(), fillers.end());
      const RouteReport table = route_all(both, max_cycles, from);
      const RouteReport filler_alone = route_all(fillers, max_cycles, from);
      expect_same_report(fold({alone, filler_alone}), table);
      for (std::uint32_t p = 0; p < scanned.size(); ++p) {
        tabled[p] = both[p];
        expect_same_packet(scanned[p], tabled[p]);
      }
      return alone;
    };

    const std::uint64_t budget = 5 + rng.below(60);
    const RouteReport cut = route_both(budget, seed % 2);
    const RouteReport rest = route_both(1'000'000, seed % 2 + cut.cycles);
    EXPECT_EQ(cut.delivered + rest.delivered, scanned.size());
    contended += cut.max_edge_queue >= 2 ? 1 : 0;
    cut_short += cut.delivered < scanned.size() ? 1 : 0;
    if (HasFailure()) {
      return;
    }
  }
  EXPECT_GT(contended, 15u);
  EXPECT_GT(cut_short, 5u);
}

}  // namespace
}  // namespace pramsim::net
