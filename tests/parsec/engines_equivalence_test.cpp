// Cross-engine property test: every engine (sequential, CRCW P-RAM,
// MasPar, and the Fig.-8 topology models) must
// reach the identical constraint-network fixpoint on every sentence.
// Support-removal is confluent, so execution order must not matter.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "cdg/parser.h"
#include "grammars/toy_grammar.h"
#include "parsec/maspar_parser.h"
#include "parsec/mesh_parser.h"
#include "parsec/pram_parser.h"

namespace {

using namespace parsec;

class EnginesEquivalence : public ::testing::TestWithParam<const char*> {
 protected:
  EnginesEquivalence() : bundle_(grammars::make_toy_grammar()) {}
  grammars::CdgBundle bundle_;
};

TEST_P(EnginesEquivalence, AllEnginesAgreeOnFixpoint) {
  const std::string text = GetParam();
  const cdg::Sentence s = bundle_.tag(text);

  // Reference: sequential parser, full filtering.
  cdg::SequentialParser seq(bundle_.grammar);
  cdg::Network ref = seq.make_network(s);
  const bool ref_accepted = seq.parse(ref).accepted;
  ref.filter();

  // CRCW P-RAM.
  {
    engine::PramParser pram(bundle_.grammar);
    cdg::Network net = seq.make_network(s);
    auto r = pram.parse(net);
    EXPECT_EQ(r.accepted, ref_accepted) << "pram: " << text;
    for (int i = 0; i < ref.num_roles(); ++i)
      EXPECT_EQ(net.domain(i), ref.domain(i)) << "pram role " << i;
  }

  // Topology models.
  for (auto topo :
       {engine::Topology::CrcwPram, engine::Topology::Mesh2D,
        engine::Topology::TreeHypercube}) {
    engine::TopologyParser tp(bundle_.grammar, topo);
    cdg::Network net = seq.make_network(s);
    auto r = tp.parse(net);
    EXPECT_EQ(r.accepted, ref_accepted)
        << engine::to_string(topo) << ": " << text;
    for (int i = 0; i < ref.num_roles(); ++i)
      EXPECT_EQ(net.domain(i), ref.domain(i))
          << engine::to_string(topo) << " role " << i;
  }

  // MasPar.
  {
    engine::MasparOptions opt;
    opt.filter_iterations = -1;
    engine::MasparParser mp(bundle_.grammar, opt);
    std::unique_ptr<engine::MasparParse> p;
    auto r = mp.parse(s, p);
    EXPECT_EQ(r.accepted, ref_accepted) << "maspar: " << text;
    const auto domains = p->domains();
    for (int i = 0; i < ref.num_roles(); ++i)
      EXPECT_EQ(domains[i], ref.domain(i)) << "maspar role " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SentencePool, EnginesEquivalence,
    ::testing::Values("The program runs", "A dog crashes",
                      "The dog halts", "program runs", "dog crashes",
                      "The runs", "runs", "The program",
                      "program The runs", "The program runs halts",
                      "A A dog runs", "The dog The runs",
                      "dog dog runs", "A compiler crashes runs",
                      "The The The dog runs"));

}  // namespace
