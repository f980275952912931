// Engine equivalence on the full English grammar: exercises l = 7
// label slots, category-refined table T and a larger constraint set on
// the MasPar kernel.
#include <gtest/gtest.h>

#include <memory>

#include "cdg/parser.h"
#include "grammars/english_grammar.h"
#include "grammars/sentence_gen.h"
#include "parsec/maspar_parser.h"
#include "parsec/pram_parser.h"

namespace {

using namespace parsec;

class EnglishEngines : public ::testing::Test {
 protected:
  EnglishEngines()
      : bundle_(grammars::make_english_grammar()), seq_(bundle_.grammar) {}

  void expect_all_engines_match(const cdg::Sentence& s,
                                const std::string& label) {
    cdg::Network ref = seq_.make_network(s);
    const bool accepted = seq_.parse(ref).accepted;
    ref.filter();

    engine::PramParser pram(bundle_.grammar);
    cdg::Network net_p = seq_.make_network(s);
    EXPECT_EQ(pram.parse(net_p).accepted, accepted) << label;
    for (int r = 0; r < ref.num_roles(); ++r)
      EXPECT_EQ(net_p.domain(r), ref.domain(r)) << label << " role " << r;

    engine::MasparOptions opt;
    opt.filter_iterations = -1;
    engine::MasparParser mp(bundle_.grammar, opt);
    std::unique_ptr<engine::MasparParse> parse;
    EXPECT_EQ(mp.parse(s, parse).accepted, accepted) << label;
    const auto domains = parse->domains();
    for (int r = 0; r < ref.num_roles(); ++r)
      EXPECT_EQ(domains[r], ref.domain(r)) << label << " role " << r;
  }

  grammars::CdgBundle bundle_;
  cdg::SequentialParser seq_;
};

TEST_F(EnglishEngines, HandPickedSentences) {
  for (const char* text :
       {"the dog runs", "it runs", "the big dog chases the small cat",
        "the dog runs in the park", "dog the runs", "the dog the cat runs"}) {
    expect_all_engines_match(bundle_.tag(text), text);
  }
}

TEST_F(EnglishEngines, GeneratedSentences) {
  grammars::SentenceGenerator gen(bundle_, 31);
  for (int n : {4, 6, 8}) {
    cdg::Sentence s = gen.generate_sentence(n);
    expect_all_engines_match(s, "generated n=" + std::to_string(n));
  }
}

TEST_F(EnglishEngines, MasparHandlesEightLabelSlots) {
  engine::MasparParser mp(bundle_.grammar);
  std::unique_ptr<engine::MasparParse> parse;
  auto r = mp.parse(bundle_.tag("the dog runs in the park"), parse);
  EXPECT_TRUE(r.accepted);
  EXPECT_EQ(parse->layout().labels_per_role(), 8);
  // 6 words, q=2: V = 4 * 6^4 = 5184 virtual PEs, factor 1 on 16K.
  EXPECT_EQ(r.vpes, 5184);
  EXPECT_EQ(r.virt_factor, 1);
}

}  // namespace
