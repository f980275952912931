// Property tests on constraint-network invariants that every engine
// relies on.
#include <gtest/gtest.h>

#include "cdg/parser.h"
#include "grammars/english_grammar.h"
#include "grammars/sentence_gen.h"
#include "grammars/toy_grammar.h"
#include "util/rng.h"

namespace {

using namespace parsec;
using cdg::Network;

class NetworkInvariants : public ::testing::TestWithParam<int> {
 protected:
  NetworkInvariants()
      : bundle_(grammars::make_english_grammar()), parser_(bundle_.grammar) {}

  cdg::Sentence sentence() {
    grammars::SentenceGenerator gen(bundle_, 1000 + GetParam());
    return gen.generate_sentence(4 + GetParam() % 9);
  }

  grammars::CdgBundle bundle_;
  cdg::SequentialParser parser_;
};

TEST_P(NetworkInvariants, PropagationOnlyRemoves) {
  Network net = parser_.make_network(sentence());
  std::vector<util::DynBitset> prev;
  for (int r = 0; r < net.num_roles(); ++r) prev.emplace_back(net.domain(r));
  auto check_shrunk = [&]() {
    for (int r = 0; r < net.num_roles(); ++r) {
      net.domain(r).for_each([&](std::size_t rv) {
        EXPECT_TRUE(prev[r].test(rv)) << "role " << r << " grew";
      });
      prev[r] = net.domain(r);
    }
  };
  parser_.run_unary(net);
  check_shrunk();
  parser_.run_binary(net);
  check_shrunk();
  net.filter();
  check_shrunk();
}

TEST_P(NetworkInvariants, ArcBitsNeverPointAtDeadValues) {
  Network net = parser_.make_network(sentence());
  parser_.parse(net);
  net.filter();
  // The structural self-check covers the same property; keep the
  // explicit loop below as an independent witness.
  EXPECT_TRUE(net.check_invariants());
  const auto m = net.pair_matrix();
  const cdg::NetworkArena& arena = net.arena();
  for (int a = 0; a < net.num_roles(); ++a) {
    const auto axis_a = net.compact_axis(a);
    for (int b = 0; b < net.num_roles(); ++b) {
      const auto axis_b = net.compact_axis(b);
      for (std::size_t i = 0; i < axis_a.size(); ++i) {
        for (std::size_t j = 0; j < axis_b.size(); ++j) {
          const std::size_t u = arena.block_begin(a) + i;
          const std::size_t v = arena.block_begin(b) + j;
          if (!m.test(u, v)) continue;
          EXPECT_NE(a, b) << "same-role bit at " << a;
          EXPECT_TRUE(m.test(v, u)) << "asymmetric " << u << "," << v;
          EXPECT_TRUE(net.alive(a, axis_a[i])) << a << "," << axis_a[i];
          EXPECT_TRUE(net.alive(b, axis_b[j])) << b << "," << axis_b[j];
        }
      }
    }
  }
}

TEST_P(NetworkInvariants, FixpointIsStable) {
  Network net = parser_.make_network(sentence());
  parser_.parse(net);
  net.filter();
  // Re-running every phase changes nothing further.
  const std::size_t alive = net.total_alive();
  const std::size_t ones = net.arc_ones();
  EXPECT_EQ(parser_.run_unary(net), 0);
  parser_.run_binary(net);
  EXPECT_EQ(net.filter(), 0);
  EXPECT_EQ(net.total_alive(), alive);
  EXPECT_EQ(net.arc_ones(), ones);
  EXPECT_TRUE(net.check_invariants());
}

TEST_P(NetworkInvariants, EverySurvivorIsSupported) {
  Network net = parser_.make_network(sentence());
  parser_.parse(net);
  net.filter();
  for (int r = 0; r < net.num_roles(); ++r)
    net.domain(r).for_each([&](std::size_t rv) {
      EXPECT_TRUE(net.supported(r, static_cast<int>(rv)))
          << "role " << r << " rv " << rv;
    });
}

TEST_P(NetworkInvariants, CountersMonotone) {
  Network net = parser_.make_network(sentence());
  auto snapshot = net.counters();
  parser_.run_unary(net);
  EXPECT_GE(net.counters().unary_evals, snapshot.unary_evals);
  snapshot = net.counters();
  parser_.run_binary(net);
  EXPECT_GE(net.counters().binary_evals, snapshot.binary_evals);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetworkInvariants,
                         ::testing::Range(0, 6));

// --------------------------------------------------------------------
// Random-order constraint application must not change the fixpoint
// (confluence of constraint propagation + filtering).
// --------------------------------------------------------------------
TEST(NetworkConfluence, ConstraintOrderIrrelevantAtFixpoint) {
  auto bundle = grammars::make_toy_grammar();
  cdg::SequentialParser parser(bundle.grammar);
  util::Rng rng(4242);
  for (const char* text : {"The program runs", "A dog halts",
                           "The dog crashes runs", "program The runs"}) {
    cdg::Sentence s = bundle.tag(text);
    Network ref = parser.make_network(s);
    parser.parse(ref);
    ref.filter();
    for (int trial = 0; trial < 5; ++trial) {
      Network net = parser.make_network(s);
      // Shuffled order, unary and binary interleaved arbitrarily.
      std::vector<std::pair<bool, std::size_t>> order;
      for (std::size_t i = 0; i < parser.compiled_unary().size(); ++i)
        order.emplace_back(true, i);
      for (std::size_t i = 0; i < parser.compiled_binary().size(); ++i)
        order.emplace_back(false, i);
      for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.next_below(i)]);
      for (auto [is_unary, idx] : order) {
        if (is_unary)
          parser.step_unary(net, idx);
        else
          parser.step_binary(net, idx);
        if (rng.next_bool(0.3)) net.consistency_step();
      }
      net.filter();
      for (int r = 0; r < net.num_roles(); ++r)
        EXPECT_EQ(net.domain(r), ref.domain(r))
            << text << " trial " << trial << " role " << r;
    }
  }
}

}  // namespace
