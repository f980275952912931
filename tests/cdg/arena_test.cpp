// NetworkArena layout and reuse: a shape region whose sizes are pure
// functions of the shape, a pair region laid out over the values alive at
// compact() and sized from them, O(1) same-shape reinit (paper §2.2.1's
// fixed-offset PE-array layout, hosted).
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "cdg/arena.h"
#include "cdg/network.h"
#include "cdg/parser.h"
#include "grammars/toy_grammar.h"

namespace {

using namespace parsec;
using cdg::NetworkArena;

/// Sets exactly the first `alive` values of each role's domain.
void set_alive(NetworkArena& a, std::initializer_list<int> alive) {
  int r = 0;
  for (int k : alive) {
    a.domain(r).reset_all();
    for (int rv = 0; rv < k; ++rv)
      a.domain(r).set(static_cast<std::size_t>(rv));
    ++r;
  }
}

TEST(NetworkArena, ShapeAndRegionSizes) {
  NetworkArena a(6, 70);  // D > 64 exercises the two-word stride
  EXPECT_EQ(a.roles(), 6);
  EXPECT_EQ(a.domain_size(), 70);
  EXPECT_EQ(a.row_words(), 2u);
  // Domain rows pad to a whole cache line.
  EXPECT_EQ(a.aligned_row_words(), NetworkArena::kAlignWords);
  EXPECT_EQ(a.domains_bytes(),
            6u * NetworkArena::kAlignWords * sizeof(NetworkArena::Word));
  // No axis capacities given: every role may hold all D values.  The
  // pair region waits for compact(), when the survivors are known.
  EXPECT_EQ(a.axis_capacity(0), 70);
  EXPECT_EQ(a.pairs_bytes(), 0u);
  EXPECT_GE(a.bytes(), a.domains_bytes());
  EXPECT_EQ(a.allocations(), 1u);
  EXPECT_EQ(a.reinits(), 0u);
}

TEST(NetworkArena, AxisCapacitiesSizeTheCompactRegion) {
  // Capacities 3, 70, 130: the worst case is 203 values, 4 words per
  // row, well under 1 MB, so compact() reserves it whole.
  const int caps[] = {3, 70, 130};
  NetworkArena a(3, 140, 0, caps);
  EXPECT_EQ(a.axis_capacity(2), 130);
  set_alive(a, {1, 2, 3});
  a.compact();
  EXPECT_EQ(a.pair_values(), 6u);
  const std::size_t worst_words = (203 + 5) * 4 + (203 * 4 + 7) / 8;
  EXPECT_EQ(a.pairs_bytes(), worst_words * sizeof(NetworkArena::Word));
  EXPECT_EQ(a.allocations(), 2u);
  // A domain past its capacity is a grammar/arena mismatch.
  a.reinit();
  set_alive(a, {4, 2, 3});
  EXPECT_THROW(a.compact(), std::logic_error);
}

TEST(NetworkArena, PairRegionGrowsFromTheSurvivorsOnly) {
  // Worst case 8000 values (8 MB of matrix): compact() sizes the region
  // from this sentence's need, max(1 MB, 2 x need), and never shrinks.
  const int caps[] = {4000, 4000};
  NetworkArena a(2, 4096, 0, caps);
  set_alive(a, {10, 10});
  a.compact();
  EXPECT_EQ(a.pairs_bytes(), NetworkArena::kMinPairBytes);
  EXPECT_EQ(a.allocations(), 2u);
  a.reinit();
  set_alive(a, {2000, 2000});
  a.compact();
  const std::size_t need = (4000 + 5) * 63 + 4000 * 4 / 8;
  EXPECT_EQ(a.pairs_bytes(), 2 * need * sizeof(NetworkArena::Word));
  EXPECT_EQ(a.allocations(), 3u);
  a.reinit();
  set_alive(a, {10, 10});
  a.compact();
  EXPECT_EQ(a.pairs_bytes(), 2 * need * sizeof(NetworkArena::Word));
  EXPECT_EQ(a.allocations(), 3u);
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
  EXPECT_EQ(a.pair_values(), 5u);
  EXPECT_EQ(a.axis(0).size(), 3u);
  EXPECT_EQ(a.axis(0)[1], 40);
  EXPECT_EQ(a.axis(1).size(), 2u);
  EXPECT_TRUE(a.axis(2).empty());
  EXPECT_EQ(a.pair_index(0, 99), 2);
  EXPECT_EQ(a.pair_index(1, 65), 4);  // role 1's block starts at 3
  EXPECT_EQ(a.pair_index(1, 64), -1);
  // The matrix starts all ones between distinct roles: the 3 x 2 block
  // of roles 0 and 1, mirrored; an empty role has no bits.
  EXPECT_EQ(a.pairs().rows(), 5u);
  EXPECT_EQ(a.pairs().count(), 12u);
  EXPECT_FALSE(a.pairs().test(0, 1));  // same role
  EXPECT_TRUE(a.pairs().test(0, 3));
  EXPECT_TRUE(a.pairs().test(3, 0));
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
  for (int r = 0; r < 5; ++r)
    EXPECT_TRUE(aligned(a.domain(r).words())) << "domain " << r;
  // Mask rows are packed at the natural stride, the region starts
  // aligned.
  EXPECT_TRUE(aligned(a.mask(0, 0).words()));
  EXPECT_EQ(a.mask(0, 1).words() - a.mask(0, 0).words(),
            static_cast<std::ptrdiff_t>(a.row_words()));
  EXPECT_EQ(a.masks_bytes(),
            3u * 5 * a.row_words() * sizeof(NetworkArena::Word));
}

TEST(NetworkArena, RoleBlocksPartitionThePairAxis) {
  NetworkArena a(5, 8);
  set_alive(a, {3, 0, 8, 1, 0});
  a.compact();
  std::size_t expect = 0;
  for (int r = 0; r < 5; ++r) {
    EXPECT_EQ(a.block_begin(r), expect) << r;  // role order, no gaps
    expect = a.block_end(r);
    for (std::size_t v = a.block_begin(r); v < a.block_end(r); ++v)
      EXPECT_EQ(a.role_of(v), r) << v;  // inverse
  }
  EXPECT_EQ(expect, a.pair_values());
  EXPECT_EQ(a.pair_values(), 12u);
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
  auto m = a.pairs();
  m.reset_all();
  for (std::size_t v = 0; v < m.rows(); ++v) m.set(v, (v + 1) % m.cols());
  for (int r = 0; r < 4; ++r)
    for (std::size_t s = 0; s < a.mask_slots(); ++s) a.mask(s, r).set_all();
  for (int p = 0; p < NetworkArena::kMaskParts; ++p) a.pair_mask(p).set_all();
  a.pair_scratch().reset_all();

  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(a.domain(r).count(), 1u);
    EXPECT_TRUE(a.domain(r).test(static_cast<std::size_t>(r)));
    EXPECT_EQ(a.axis(r).size(), 10u);  // the axis outlives domain writes
    EXPECT_EQ(a.axis(r)[9], 9);
    for (std::size_t s = 0; s < a.mask_slots(); ++s)
      EXPECT_EQ(a.mask(s, r).count(), 10u);
  }
  for (int p = 0; p < NetworkArena::kMaskParts; ++p)
    EXPECT_EQ(a.pair_mask(p).count(), 40u);
  EXPECT_EQ(a.pair_scratch().count(), 0u);
  EXPECT_EQ(m.count(), 40u);
  for (std::size_t v = 0; v < m.rows(); ++v)
    EXPECT_TRUE(m.test(v, (v + 1) % m.cols()));
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
  parser.parse(net);
  net.filter();
  EXPECT_TRUE(net.check_invariants());
  // Shape region at construction, pair region at the first compact().
  const std::uint64_t allocs = net.arena().allocations();
  EXPECT_EQ(allocs, 2u);

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
  EXPECT_TRUE(ref.pair_matrix() == net.pair_matrix());

  // Different length: reinit must refuse (shape change).
  EXPECT_FALSE(net.reinit(bundle.tag("The dog")));
}

}  // namespace
