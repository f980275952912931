// NetworkArena layout and reuse: one allocation, region sizes that are
// pure functions of the shape, compact arcs laid out over the values
// alive at compact(), O(1) same-shape reinit (paper §2.2.1's
// fixed-offset PE-array layout, hosted).
#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "cdg/arena.h"
#include "cdg/network.h"
#include "cdg/parser.h"
#include "grammars/toy_grammar.h"

namespace {

using namespace parsec;
using cdg::NetworkArena;

TEST(NetworkArena, ShapeAndRegionSizes) {
  NetworkArena a(6, 70);  // D > 64 exercises the two-word stride
  EXPECT_EQ(a.roles(), 6);
  EXPECT_EQ(a.domain_size(), 70);
  EXPECT_EQ(a.row_words(), 2u);
  // Domain rows pad to a whole cache line.
  EXPECT_EQ(a.aligned_row_words(), NetworkArena::kAlignWords);
  EXPECT_EQ(a.num_arcs(), 15u);  // 6*5/2
  EXPECT_EQ(a.domains_bytes(),
            6u * NetworkArena::kAlignWords * sizeof(NetworkArena::Word));
  // No axis capacities given: every role may hold all D values, so each
  // compact arc can grow to D rows of ceil(D / 64) words.
  EXPECT_EQ(a.axis_capacity(0), 70);
  EXPECT_EQ(a.arcs_bytes(), 15u * 70 * 2 * sizeof(NetworkArena::Word));
  EXPECT_GE(a.bytes(), a.domains_bytes() + a.arcs_bytes());
  EXPECT_EQ(a.allocations(), 1u);
  EXPECT_EQ(a.reinits(), 0u);
}

TEST(NetworkArena, AxisCapacitiesSizeTheCompactRegion) {
  // Capacities 3, 70, 130: arc (a, b) reserves cap_a rows of
  // ceil(cap_b / 64) words.
  const int caps[] = {3, 70, 130};
  NetworkArena a(3, 140, 0, caps);
  EXPECT_EQ(a.axis_capacity(2), 130);
  EXPECT_EQ(a.arcs_bytes(),
            (3u * 2 + 3u * 3 + 70u * 3) * sizeof(NetworkArena::Word));
}

TEST(NetworkArena, CompactAxesFollowTheAliveValues) {
  NetworkArena a(3, 100);
  const int alive[3][3] = {{2, 40, 99}, {0, 65, -1}, {-1, -1, -1}};
  for (int r = 0; r < 3; ++r) {
    a.domain(r).reset_all();
    for (int rv : alive[r])
      if (rv >= 0) a.domain(r).set(static_cast<std::size_t>(rv));
  }
  a.compact();
  ASSERT_TRUE(a.compacted());
  EXPECT_EQ(a.axis(0).size(), 3u);
  EXPECT_EQ(a.axis(0)[1], 40);
  EXPECT_EQ(a.axis(1).size(), 2u);
  EXPECT_TRUE(a.axis(2).empty());
  EXPECT_EQ(a.compact_id(0, 99), 2);
  EXPECT_EQ(a.compact_id(1, 65), 1);
  EXPECT_EQ(a.compact_id(1, 64), -1);
  // Arcs start all ones over alive x alive; an empty side has no bits.
  EXPECT_EQ(a.arc(0, 1).rows(), 3u);
  EXPECT_EQ(a.arc(0, 1).cols(), 2u);
  EXPECT_EQ(a.arc(0, 1).count(), 6u);
  EXPECT_EQ(a.arc(0, 2).count(), 0u);
  EXPECT_EQ(a.arc(1, 2).rows(), 2u);
  EXPECT_EQ(a.arc(1, 2).count(), 0u);
  a.reinit();
  EXPECT_FALSE(a.compacted());
}

TEST(NetworkArena, AlignedRowsStartOnCacheLines) {
  NetworkArena a(5, 70, /*mask_slots=*/3);
  auto aligned = [](const void* p) {
    return reinterpret_cast<std::uintptr_t>(p) %
               NetworkArena::kRowAlignBytes ==
           0;
  };
  for (int r = 0; r < 5; ++r) {
    EXPECT_TRUE(aligned(a.domain(r).words())) << "domain " << r;
    EXPECT_TRUE(aligned(a.support_scratch(r).words())) << "scratch " << r;
    for (std::size_t s = 0; s < a.mask_slots(); ++s)
      EXPECT_TRUE(aligned(a.mask(s, r).words())) << "mask " << s << "," << r;
  }
}

TEST(NetworkArena, ArcIndexIsRowMajorUpperTriangleBijection) {
  NetworkArena a(5, 8);
  std::set<std::size_t> seen;
  std::size_t expect = 0;
  for (int ra = 0; ra < 5; ++ra)
    for (int rb = ra + 1; rb < 5; ++rb) {
      const std::size_t idx = a.arc_index(ra, rb);
      EXPECT_EQ(idx, expect++);  // row-major order
      EXPECT_TRUE(seen.insert(idx).second) << ra << "," << rb;
      const auto [pa, pb] = a.arc_pair(idx);  // inverse
      EXPECT_EQ(pa, ra);
      EXPECT_EQ(pb, rb);
    }
  EXPECT_EQ(seen.size(), a.num_arcs());
}

TEST(NetworkArena, SpansAndViewsAddressDisjointStorage) {
  NetworkArena a(4, 10, /*mask_slots=*/2);
  for (int r = 0; r < 4; ++r) a.domain(r).set_all();
  a.compact();
  // Write a distinct pattern through every accessor, then read it all
  // back: no region may alias another.
  for (int r = 0; r < 4; ++r) {
    auto d = a.domain(r);
    d.reset_all();
    d.set(static_cast<std::size_t>(r));
  }
  for (std::size_t t = 0; t < a.num_arcs(); ++t) {
    auto m = a.arc(t);
    m.reset_all();
    m.set(t % 10, (t + 1) % 10);
  }
  for (auto& f : a.rv_flags()) f = 3;
  for (int r = 0; r < 4; ++r) {
    for (std::size_t s = 0; s < a.mask_slots(); ++s) a.mask(s, r).set_all();
    a.support_scratch(r).reset_all();
    for (int p = 0; p < NetworkArena::kMaskParts; ++p)
      a.compact_mask(p, r).set_all();
    a.compact_scratch(r).reset_all();
  }

  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(a.domain(r).count(), 1u);
    EXPECT_TRUE(a.domain(r).test(static_cast<std::size_t>(r)));
    EXPECT_EQ(a.axis(r).size(), 10u);  // the axis outlives domain writes
    for (std::size_t s = 0; s < a.mask_slots(); ++s)
      EXPECT_EQ(a.mask(s, r).count(), 10u);
    EXPECT_EQ(a.support_scratch(r).count(), 0u);
    for (int p = 0; p < NetworkArena::kMaskParts; ++p)
      EXPECT_EQ(a.compact_mask(p, r).count(), 10u);
    EXPECT_EQ(a.compact_scratch(r).count(), 0u);
  }
  for (std::size_t t = 0; t < a.num_arcs(); ++t) {
    EXPECT_EQ(a.arc(t).count(), 1u) << "arc " << t;
    EXPECT_TRUE(a.arc(t).test(t % 10, (t + 1) % 10));
  }
  for (auto f : a.rv_flags()) EXPECT_EQ(f, 3);
}

TEST(NetworkArena, ReinitKeepsAllocationAndPointers) {
  NetworkArena a(4, 9);
  ASSERT_EQ(a.allocations(), 1u);
  const NetworkArena::Word* dom0 = a.domain(0).words();
  const std::size_t bytes = a.bytes();
  a.reinit();
  a.reinit();
  EXPECT_EQ(a.reinits(), 2u);
  EXPECT_EQ(a.allocations(), 1u);  // no realloc
  EXPECT_EQ(a.bytes(), bytes);
  EXPECT_EQ(a.domain(0).words(), dom0);  // storage stable
  EXPECT_FALSE(a.compacted());           // axes dropped
}

TEST(NetworkArena, SameShapeReshapeDoesNotReallocate) {
  NetworkArena a(5, 12);
  const std::size_t bytes = a.bytes();
  a.reshape(5, 12);
  EXPECT_EQ(a.allocations(), 1u);
  EXPECT_EQ(a.bytes(), bytes);
  // Shrinking fits in the existing capacity too.
  a.reshape(3, 8);
  EXPECT_EQ(a.allocations(), 1u);
  EXPECT_TRUE(a.same_shape(3, 8));
  // Growing past capacity reallocates exactly once.
  a.reshape(8, 20);
  EXPECT_EQ(a.allocations(), 2u);
}

// ---------------------------------------------------------------------
// Arena reuse through Network::reinit — mirrors the existing Network
// reinit tests, but asserts on the arena's accounting.
// ---------------------------------------------------------------------
TEST(NetworkArenaReuse, NetworkReinitIsAllocationFreeAndBitIdentical) {
  auto bundle = grammars::make_toy_grammar();
  cdg::SequentialParser parser(bundle.grammar);
  cdg::Sentence s1 = bundle.tag("The program runs");
  cdg::Sentence s2 = bundle.tag("a compiler halts");

  cdg::Network net = parser.make_network(s1);
  const std::uint64_t allocs = net.arena().allocations();
  parser.parse(net);
  net.filter();
  EXPECT_TRUE(net.check_invariants());

  // Fresh-network reference for the second sentence.
  cdg::Network ref = parser.make_network(s2);
  parser.parse(ref);
  ref.filter();

  // Same-length reinit: arena reused, fixpoint bit-identical.
  ASSERT_TRUE(net.reinit(s2));
  EXPECT_EQ(net.arena().allocations(), allocs);
  EXPECT_GE(net.arena().reinits(), 1u);
  parser.parse(net);
  net.filter();
  EXPECT_TRUE(net.check_invariants());
  for (int r = 0; r < net.num_roles(); ++r)
    EXPECT_EQ(ref.domain(r), net.domain(r)) << "role " << r;
  for (int a = 0; a < net.num_roles(); ++a)
    for (int b = a + 1; b < net.num_roles(); ++b)
      EXPECT_TRUE(ref.arc_matrix(a, b) == net.arc_matrix(a, b))
          << "arc " << a << "," << b;

  // Different length: reinit must refuse (shape change).
  EXPECT_FALSE(net.reinit(bundle.tag("The dog")));
}

}  // namespace
