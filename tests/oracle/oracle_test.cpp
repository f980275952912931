// Every backend against the reference parser of tests/oracle/oracle.h.
//
// Inputs: the worked example of Figures 1-7, the golden fixpoint table's
// 16 toy-grammar word strings, and its English sentences of at most 8
// words (tests/parsec/golden_fixpoint_test.cpp builds the same corpus).
// Each role's final domain must equal the oracle's on the serial, P-RAM,
// mesh and MasPar backends, under AC-4 filtering, and with the arcs
// built before unary propagation.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cdg/ac4.h"
#include "cdg/parser.h"
#include "grammars/english_grammar.h"
#include "grammars/sentence_gen.h"
#include "grammars/toy_grammar.h"
#include "oracle/oracle.h"
#include "parsec/backend.h"
#include "util/rng.h"

namespace {

using namespace parsec;

struct Case {
  bool toy;
  cdg::Sentence s;
};

std::vector<Case> corpus(const grammars::CdgBundle& toy,
                         const grammars::CdgBundle& english) {
  std::vector<Case> out{{true, toy.tag("The program runs")}};
  grammars::SentenceGenerator gen(english, 1992);
  for (int i = 0; i < 64; ++i) {
    cdg::Sentence s = gen.generate_sentence(4 + i % 21);
    if (s.size() <= 8) out.push_back({false, std::move(s)});
  }
  static const std::vector<std::string> pool{
      "The", "a", "program", "dog", "compiler", "runs", "halts", "crashes"};
  util::Rng rng(1992);
  for (int i = 0; i < 16; ++i) {
    const int n = 1 + static_cast<int>(rng.next_below(7));
    std::vector<std::string> words;
    for (int w = 0; w < n; ++w) words.push_back(rng.pick(pool));
    out.push_back({true, toy.lexicon.tag(words)});
  }
  return out;
}

/// Dense domain bitsets, read back as (label, modifiee) sets.
template <typename DomainOf>
oracle::Domains decode(const cdg::Sentence& s, int labels, int roles,
                       DomainOf&& domain_of) {
  const cdg::RvIndexer ix(s.size(), labels);
  oracle::Domains out(static_cast<std::size_t>(roles));
  for (int r = 0; r < roles; ++r)
    domain_of(r).for_each([&](std::size_t rv) {
      const cdg::RoleValue v = ix.decode(static_cast<int>(rv));
      out[r].insert(oracle::Value{v.label, v.mod});
    });
  return out;
}

oracle::Domains decode(const cdg::Network& net) {
  return decode(net.sentence(), net.grammar().num_labels(), net.num_roles(),
                [&](int r) { return net.domain(r); });
}

class Oracle : public ::testing::Test {
 protected:
  Oracle()
      : toy_(grammars::make_toy_grammar()),
        english_(grammars::make_english_grammar()),
        toy_engines_(toy_.grammar),
        english_engines_(english_.grammar),
        corpus_(corpus(toy_, english_)) {}

  const engine::EngineSet& engines(const Case& c) const {
    return c.toy ? toy_engines_ : english_engines_;
  }

  grammars::CdgBundle toy_;
  grammars::CdgBundle english_;
  engine::EngineSet toy_engines_;
  engine::EngineSet english_engines_;
  std::vector<Case> corpus_;
};

TEST_F(Oracle, CorpusCoversBothGrammars) {
  // 1 figure sentence, 16 toy strings, and the n <= 8 English sentences.
  std::size_t english = 0;
  for (const Case& c : corpus_) english += !c.toy;
  EXPECT_EQ(corpus_.size(), 17 + english);
  EXPECT_GE(english, 10u);
}

TEST_F(Oracle, EveryBackendReachesTheOracleFixpoint) {
  for (std::size_t i = 0; i < corpus_.size(); ++i) {
    const engine::EngineSet& es = engines(corpus_[i]);
    const cdg::Sentence& s = corpus_[i].s;
    const oracle::Domains want = oracle::parse(es.grammar(), s);
    const int roles = s.size() * es.grammar().num_roles();
    for (engine::Backend b : engine::kAllBackends) {
      const engine::BackendRun run =
          engine::run_backend(es, b, s, nullptr, {}, /*capture_domains=*/true);
      ASSERT_EQ(run.domains.size(), static_cast<std::size_t>(roles));
      EXPECT_EQ(decode(s, es.grammar().num_labels(), roles,
                       [&](int r) { return run.domains[r]; }),
                want)
          << "sentence " << i << " backend " << engine::to_string(b);
    }
  }
}

TEST_F(Oracle, Ac4FilteringReachesTheOracleFixpoint) {
  engine::NetworkScratch scratch;
  for (std::size_t i = 0; i < corpus_.size(); ++i) {
    const cdg::SequentialParser& p = engines(corpus_[i]).serial();
    cdg::Network& net = scratch.acquire(p.grammar(), corpus_[i].s);
    for (std::size_t k = 0; k < p.compiled_unary().size(); ++k)
      p.step_unary(net, k);
    for (std::size_t k = 0; k < p.compiled_binary().size(); ++k)
      p.step_binary(net, k);
    cdg::filter_ac4(net);
    EXPECT_EQ(decode(net), oracle::parse(p.grammar(), corpus_[i].s))
        << "sentence " << i;
  }
}

TEST_F(Oracle, PrebuiltArcsReachTheOracleFixpoint) {
  cdg::ParseOptions prebuilt;
  prebuilt.prebuild_arcs = true;
  const cdg::SequentialParser toy(toy_.grammar, prebuilt);
  const cdg::SequentialParser english(english_.grammar, prebuilt);
  for (std::size_t i = 0; i < corpus_.size(); ++i) {
    const cdg::SequentialParser& p = corpus_[i].toy ? toy : english;
    cdg::Network net = p.make_network(corpus_[i].s);
    p.parse(net);
    EXPECT_EQ(decode(net), oracle::parse(p.grammar(), corpus_[i].s))
        << "sentence " << i;
  }
}

}  // namespace
