#include "cdg/network.h"

#include <gtest/gtest.h>

#include "cdg/parser.h"
#include "grammars/toy_grammar.h"

namespace {

using namespace parsec;
using cdg::Network;

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : bundle_(grammars::make_toy_grammar()) {}

  Network make(const std::string& text, bool prebuild = true) {
    cdg::NetworkOptions opt;
    opt.prebuild_arcs = prebuild;
    return Network(bundle_.grammar, bundle_.tag(text), opt);
  }

  grammars::CdgBundle bundle_;
};

TEST_F(NetworkTest, ShapeMatchesPaperAccounting) {
  Network net = make("The program runs");
  EXPECT_EQ(net.n(), 3);
  EXPECT_EQ(net.roles_per_word(), 2);
  EXPECT_EQ(net.num_roles(), 6);
  // D = |L| * (n+1) = 6 * 4.
  EXPECT_EQ(net.domain_size(), 24);
  // Initial role values: 3 T-allowed labels x 3 modifiees per role.
  for (int r = 0; r < net.num_roles(); ++r)
    EXPECT_EQ(net.domain(r).count(), 9u);
}

TEST_F(NetworkTest, RoleIndexRoundTrip) {
  Network net = make("The program runs");
  for (cdg::WordPos w = 1; w <= 3; ++w) {
    for (cdg::RoleId r = 0; r < 2; ++r) {
      const int role = net.role_index(w, r);
      EXPECT_EQ(net.word_of_role(role), w);
      EXPECT_EQ(net.role_id_of(role), r);
    }
  }
}

TEST_F(NetworkTest, NoSelfModification) {
  Network net = make("The program runs");
  const auto& idx = net.indexer();
  for (int role = 0; role < net.num_roles(); ++role) {
    const cdg::WordPos w = net.word_of_role(role);
    for (const auto& rv : net.alive_values(role)) EXPECT_NE(rv.mod, w);
    (void)idx;
  }
}

TEST_F(NetworkTest, ArcCountIsRChoose2) {
  Network net = make("The program runs");
  // 6 roles -> 15 arcs, the off-diagonal blocks of the pair matrix: with
  // 9 values per role, 15 * 81 pairs, each queryable in both orders.
  EXPECT_EQ(net.arc_ones(), 15u * 9 * 9);
  EXPECT_EQ(net.pair_matrix().count(), 2 * net.arc_ones());
  int count = 0;
  for (int a = 0; a < net.num_roles(); ++a)
    for (int b = a + 1; b < net.num_roles(); ++b) {
      const int i = net.domain(a).find_first();
      const int j = net.domain(b).find_first();
      EXPECT_TRUE(net.arc_allows(a, i, b, j) && net.arc_allows(b, j, a, i));
      ++count;
    }
  EXPECT_EQ(count, 15);
}

TEST_F(NetworkTest, ArcAllowsSymmetricAccess) {
  Network net = make("The program runs");
  const int ra = net.role_index(1, 0), rb = net.role_index(2, 0);
  const int i = net.domain(ra).find_first();
  const int j = net.domain(rb).find_first();
  EXPECT_TRUE(net.arc_allows(ra, i, rb, j));
  EXPECT_TRUE(net.arc_allows(rb, j, ra, i));
  net.arc_forbid(rb, j, ra, i);  // reversed order must hit the same bit
  EXPECT_FALSE(net.arc_allows(ra, i, rb, j));
  EXPECT_FALSE(net.arc_allows(rb, j, ra, i));
}

TEST_F(NetworkTest, ArcForbidChargesOnlyClearedPairs) {
  Network net = make("The program runs");
  const int ra = net.role_index(1, 0), rb = net.role_index(2, 0);
  const int i = net.domain(ra).find_first();
  const int j = net.domain(rb).find_first();
  const std::size_t ones = net.arc_ones();
  net.arc_forbid(ra, i, rb, j);
  EXPECT_EQ(net.counters().arc_zeroings, 1u);
  // The pair is already gone: nothing to clear, nothing to charge.
  net.arc_forbid(ra, i, rb, j);
  net.arc_forbid(rb, j, ra, i);
  EXPECT_EQ(net.counters().arc_zeroings, 1u);
  EXPECT_EQ(net.arc_ones(), ones - 1);
  EXPECT_TRUE(net.check_invariants());
}

TEST_F(NetworkTest, EliminateZeroesRowsAndColumns) {
  Network net = make("The program runs");
  const int role = net.role_index(2, 0);
  const int rv = net.domain(role).find_first();
  net.eliminate(role, rv);
  EXPECT_FALSE(net.alive(role, rv));
  for (int other = 0; other < net.num_roles(); ++other) {
    if (other == role) continue;
    net.domain(other).for_each([&](std::size_t j) {
      EXPECT_FALSE(net.arc_allows(role, rv, other, static_cast<int>(j)));
    });
  }
  // Idempotent.
  auto before = net.counters().eliminations;
  net.eliminate(role, rv);
  EXPECT_EQ(net.counters().eliminations, before);
}

TEST_F(NetworkTest, SupportedDetectsZeroedRow) {
  Network net = make("The program runs");
  const int ra = net.role_index(2, 0);
  const int rb = net.role_index(3, 0);
  const int rv = net.domain(ra).find_first();
  // Zero rv's row against every other role: unsupported.
  for (int other = 0; other < net.num_roles(); ++other) {
    if (other == ra) continue;
    net.domain(other).for_each([&](std::size_t j) {
      if (other == rb) net.arc_forbid(ra, rv, other, static_cast<int>(j));
    });
  }
  EXPECT_FALSE(net.supported(ra, rv));
  const int other_rv = net.domain(ra).find_next_from(rv + 1);
  EXPECT_TRUE(net.supported(ra, static_cast<int>(other_rv)));
}

TEST_F(NetworkTest, ConsistencyStepRemovesUnsupported) {
  Network net = make("The program runs");
  const int ra = net.role_index(2, 0);
  const int rb = net.role_index(3, 0);
  const int rv = net.domain(ra).find_first();
  net.domain(rb).for_each([&](std::size_t j) {
    net.arc_forbid(ra, rv, rb, static_cast<int>(j));
  });
  const std::size_t alive_before = net.total_alive();
  const int eliminated = net.consistency_step();
  EXPECT_EQ(eliminated, 1);
  EXPECT_FALSE(net.alive(ra, rv));
  EXPECT_EQ(net.total_alive(), alive_before - 1);
  // Quiescent afterwards.
  EXPECT_EQ(net.consistency_step(), 0);
}

TEST_F(NetworkTest, FilterReachesFixpoint) {
  Network net = make("The program runs");
  cdg::SequentialParser parser(bundle_.grammar);
  parser.run_unary(net);
  parser.run_binary(net);
  net.filter();
  // A further sweep finds nothing.
  EXPECT_EQ(net.consistency_step(), 0);
}

TEST_F(NetworkTest, LazyArcsMatchPrebuiltAfterUnary) {
  // Design decision 1 (§2.2.1): building arcs before or after unary
  // propagation must give identical final networks.
  cdg::SequentialParser pre(bundle_.grammar, {.prebuild_arcs = true});
  cdg::SequentialParser lazy(bundle_.grammar, {.prebuild_arcs = false});
  for (const char* text : {"The program runs", "A dog crashes",
                           "The dog runs", "program runs"}) {
    Network a = pre.make_network(bundle_.tag(text));
    Network b = lazy.make_network(bundle_.tag(text));
    pre.parse(a);
    lazy.parse(b);
    for (int r = 0; r < a.num_roles(); ++r)
      EXPECT_EQ(a.domain(r), b.domain(r)) << text << " role " << r;
    EXPECT_EQ(a.all_roles_nonempty(), b.all_roles_nonempty()) << text;
  }
}

TEST_F(NetworkTest, EmptySentenceRejected) {
  cdg::Sentence s;
  EXPECT_THROW(Network(bundle_.grammar, s), std::invalid_argument);
}

TEST_F(NetworkTest, CountersAccumulate) {
  Network net = make("The program runs");
  cdg::SequentialParser parser(bundle_.grammar);
  cdg::ParseResult r = parser.parse(net);
  EXPECT_GT(r.counters.unary_evals, 0u);
  EXPECT_GT(r.counters.binary_evals, 0u);
  EXPECT_GT(r.counters.eliminations, 0u);
  EXPECT_GT(r.counters.support_checks, 0u);
}

TEST_F(NetworkTest, SingleWordSentence) {
  // "program" alone: governor must modify something (noun unary
  // constraint), but there is nothing to modify: reject.
  Network net = make("program");
  cdg::SequentialParser parser(bundle_.grammar);
  cdg::ParseResult r = parser.parse(net);
  EXPECT_FALSE(r.accepted);
}

}  // namespace
