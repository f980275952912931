// The vectorized evaluation layer's cache and counter contracts:
//   * mask bits equal the per-value hoisted-part evaluation at every
//     alive position (the masks ARE the hoisted predicates);
//   * Network::reinit invalidates every mask (generation check), and a
//     rebuild produces the new sentence's truths;
//   * the effective eval counters equal the plain path's counts exactly
//     (kernels.h counter-hook contract), so paper-figure numbers are
//     reproducible whichever evaluator ran;
//   * masked and plain full parses reach bit-identical fixpoints.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cdg/constraint_eval.h"
#include "cdg/kernels.h"
#include "cdg/network.h"
#include "cdg/parser.h"
#include "grammars/english_grammar.h"
#include "grammars/sentence_gen.h"
#include "parsec/backend.h"

namespace {

using namespace parsec;
using cdg::Binding;
using cdg::FactoredConstraint;

class MaskCacheTest : public ::testing::Test {
 protected:
  MaskCacheTest() : bundle(grammars::make_english_grammar()) {}

  cdg::Sentence sentence(std::uint64_t seed, int n) {
    grammars::SentenceGenerator gen(bundle, seed);
    return gen.generate_sentence(n);
  }

  grammars::CdgBundle bundle;
};

TEST_F(MaskCacheTest, MaskBitsEqualHoistedEvalAtAlivePositions) {
  const auto binary = cdg::factor_all(bundle.grammar.binary_constraints());
  cdg::Network net(bundle.grammar, sentence(7, 6));
  for (std::size_t k = 0; k < binary.size(); ++k) {
    const FactoredConstraint& c = binary[k];
    net.ensure_masks(c, k);
    for (int role = 0; role < net.num_roles(); ++role) {
      const cdg::kernels::FactoredMasks m = net.masks(k, role);
      net.domain(role).for_each([&](std::size_t rv) {
        const Binding b{net.indexer().decode(static_cast<int>(rv)),
                        net.role_id_of(role), net.word_of_role(role)};
        EXPECT_EQ(m.ante_x.test(rv),
                  eval_hoisted(c.ante_x, net.sentence(), b))
            << c.full.name << " ante_x role " << role << " rv " << rv;
        EXPECT_EQ(m.ante_y.test(rv),
                  eval_hoisted(c.ante_y, net.sentence(), b))
            << c.full.name << " ante_y role " << role << " rv " << rv;
        EXPECT_EQ(m.cons_x.test(rv),
                  eval_hoisted(c.cons_x, net.sentence(), b))
            << c.full.name << " cons_x role " << role << " rv " << rv;
        EXPECT_EQ(m.cons_y.test(rv),
                  eval_hoisted(c.cons_y, net.sentence(), b))
            << c.full.name << " cons_y role " << role << " rv " << rv;
      });
    }
  }
}

TEST_F(MaskCacheTest, ReinitInvalidatesEveryMask) {
  const auto binary = cdg::factor_all(bundle.grammar.binary_constraints());
  ASSERT_FALSE(binary.empty());
  cdg::Network net(bundle.grammar, sentence(7, 6));

  for (std::size_t k = 0; k < binary.size(); ++k) {
    EXPECT_FALSE(net.mask_cache().built(net.arena(), k)) << k;
    net.ensure_masks(binary[k], k);
    EXPECT_TRUE(net.mask_cache().built(net.arena(), k)) << k;
  }
  const std::uint64_t builds_before = net.mask_cache().builds();
  // A second ensure is a cache hit: no rebuild, no build evals.
  const std::size_t build_evals = net.counters().mask_build_evals;
  net.ensure_masks(binary[0], 0);
  EXPECT_EQ(net.mask_cache().builds(), builds_before);
  EXPECT_EQ(net.counters().mask_build_evals, build_evals);

  // Re-binding the arena to a new same-length sentence invalidates all
  // masks in O(1) — the generation check, not a mask wipe.
  ASSERT_TRUE(net.reinit(sentence(99, 6)));
  for (std::size_t k = 0; k < binary.size(); ++k)
    EXPECT_FALSE(net.mask_cache().built(net.arena(), k)) << k;

  // Rebuilding yields the NEW sentence's truth masks.
  const FactoredConstraint& c = binary[0];
  net.ensure_masks(c, 0);
  EXPECT_GT(net.mask_cache().builds(), builds_before);
  for (int role = 0; role < net.num_roles(); ++role) {
    const cdg::kernels::FactoredMasks m = net.masks(0, role);
    net.domain(role).for_each([&](std::size_t rv) {
      const Binding b{net.indexer().decode(static_cast<int>(rv)),
                      net.role_id_of(role), net.word_of_role(role)};
      EXPECT_EQ(m.ante_x.test(rv), eval_hoisted(c.ante_x, net.sentence(), b));
      EXPECT_EQ(m.cons_x.test(rv), eval_hoisted(c.cons_x, net.sentence(), b));
    });
  }
}

// The counter contract (kernels.h): effective counts in plain-sweep
// units must equal the plain path's actual counts, and the fixpoints
// must be bit-identical — for every sentence of a mixed corpus.
TEST_F(MaskCacheTest, EffectiveCountsAndFixpointsMatchPlainPath) {
  cdg::ParseOptions masked_opt;  // defaults: use_masks = true
  cdg::ParseOptions plain_opt;
  plain_opt.use_masks = false;
  cdg::SequentialParser masked(bundle.grammar, masked_opt);
  cdg::SequentialParser plain(bundle.grammar, plain_opt);

  grammars::SentenceGenerator gen(bundle, 4711);
  for (int i = 0; i < 12; ++i) {
    const cdg::Sentence s = gen.generate_sentence(3 + i % 8);
    cdg::Network nm = masked.make_network(s);
    cdg::Network np = plain.make_network(s);
    const auto rm = masked.parse(nm);
    const auto rp = plain.parse(np);

    EXPECT_EQ(engine::hash_domains(nm), engine::hash_domains(np)) << i;
    EXPECT_EQ(rm.accepted, rp.accepted) << i;
    const auto& cm = rm.counters;
    const auto& cp = rp.counters;
    EXPECT_EQ(cm.effective_unary_evals(), cp.unary_evals) << i;
    EXPECT_EQ(cm.effective_binary_evals(), cp.binary_evals) << i;
    EXPECT_EQ(cm.eliminations, cp.eliminations) << i;
    EXPECT_EQ(cm.arc_zeroings, cp.arc_zeroings) << i;
    // The masked path must actually be masking (not evaluating every
    // pair against the whole constraint) on real sentences.
    EXPECT_GT(cm.masked_binary_pairs, 0u) << i;
    EXPECT_LT(cm.binary_evals, cp.binary_evals) << i;
  }
}

}  // namespace
