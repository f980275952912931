// Randomized cross-engine fuzz: arbitrary word strings (grammatical or
// not) from the toy lexicon; every engine must agree with the
// sequential fixpoint on acceptance and domains.
#include <gtest/gtest.h>

#include <memory>

#include "cdg/extract.h"
#include "cdg/parser.h"
#include "grammars/toy_grammar.h"
#include "parsec/maspar_parser.h"
#include "parsec/mesh_parser.h"
#include "parsec/pram_parser.h"
#include "util/rng.h"

namespace {

using namespace parsec;

class RandomSentences : public ::testing::TestWithParam<int> {
 protected:
  RandomSentences() : bundle_(grammars::make_toy_grammar()) {}

  std::vector<std::string> random_words(util::Rng& rng, int n) {
    static const std::vector<std::string> pool{
        "The", "a", "program", "dog", "compiler", "runs", "halts",
        "crashes"};
    std::vector<std::string> words;
    for (int i = 0; i < n; ++i) words.push_back(rng.pick(pool));
    return words;
  }

  grammars::CdgBundle bundle_;
};

TEST_P(RandomSentences, AllEnginesAgree) {
  util::Rng rng(777 + GetParam());
  cdg::SequentialParser seq(bundle_.grammar);
  engine::PramParser pram(bundle_.grammar);
  engine::MasparOptions mopt;
  mopt.filter_iterations = -1;
  engine::MasparParser maspar(bundle_.grammar, mopt);
  engine::TopologyParser tree(bundle_.grammar,
                              engine::Topology::TreeHypercube);

  for (int trial = 0; trial < 8; ++trial) {
    const int n = 1 + static_cast<int>(rng.next_below(7));
    cdg::Sentence s = bundle_.lexicon.tag(random_words(rng, n));
    std::string label;
    for (const auto& w : s.words) label += w + " ";

    cdg::Network ref = seq.make_network(s);
    const bool accepted = seq.parse(ref).accepted;
    ref.filter();

    cdg::Network n1 = seq.make_network(s);
    EXPECT_EQ(pram.parse(n1).accepted, accepted) << label;
    cdg::Network n2 = seq.make_network(s);
    EXPECT_EQ(tree.parse(n2).accepted, accepted) << label;
    std::unique_ptr<engine::MasparParse> mp;
    EXPECT_EQ(maspar.parse(s, mp).accepted, accepted) << label;

    const auto domains = mp->domains();
    for (int r = 0; r < ref.num_roles(); ++r) {
      EXPECT_EQ(n1.domain(r), ref.domain(r)) << label << "pram r" << r;
      EXPECT_EQ(n2.domain(r), ref.domain(r)) << label << "tree r" << r;
      EXPECT_EQ(domains[r], ref.domain(r)) << label << "maspar r" << r;
    }
  }
}

TEST_P(RandomSentences, AcceptanceMatchesExactParseExistence) {
  // Local consistency (fixpoint filtering) is a necessary condition;
  // on the toy grammar's small sentences it coincides with exact
  // extraction-based acceptance — document where both agree.
  util::Rng rng(31337 + GetParam());
  cdg::SequentialParser seq(bundle_.grammar);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 1 + static_cast<int>(rng.next_below(6));
    cdg::Sentence s = bundle_.lexicon.tag(random_words(rng, n));
    cdg::Network net = seq.make_network(s);
    seq.parse(net);
    const bool ac_accept = net.all_roles_nonempty();
    const bool exact = cdg::count_parses(net, 1) > 0;
    // Exact acceptance implies AC acceptance, always.
    if (exact) {
      EXPECT_TRUE(ac_accept);
    }
    // The reverse holds on these inputs (checked, not assumed).
    if (ac_accept) {
      EXPECT_TRUE(exact);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSentences, ::testing::Range(0, 8));

}  // namespace
