// Golden reproduction of the paper's worked example (Figures 1-7).
//
// The toy grammar of §1.1-1.3 is run over "The program runs" and the CN
// state is checked after every stage against the states printed in the
// figures.  Role-set notation below matches the paper exactly.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "cdg/extract.h"
#include "cdg/network.h"
#include "cdg/parser.h"
#include "cdg/printer.h"
#include "grammars/toy_grammar.h"

namespace {

using namespace parsec;
using cdg::Network;
using cdg::RoleValue;

class GoldenFigures : public ::testing::Test {
 protected:
  GoldenFigures()
      : bundle_(grammars::make_toy_grammar()),
        parser_(bundle_.grammar),
        sentence_(bundle_.tag("The program runs")),
        net_(parser_.make_network(sentence_)) {}

  /// Alive role values of (word, role-name) as "LABEL-mod" strings.
  std::set<std::string> role_set(int word, const char* role_name) {
    const int role = net_.role_index(word, bundle_.grammar.role(role_name));
    std::set<std::string> out;
    for (const RoleValue& rv : net_.alive_values(role))
      out.insert(cdg::to_string(bundle_.grammar, rv));
    return out;
  }

  int role_of(int word, const char* role_name) {
    return net_.role_index(word, bundle_.grammar.role(role_name));
  }

  /// Arc-matrix bit between two named role values.
  bool arc_bit(int word_a, const char* role_a, const char* rv_a, int word_b,
               const char* role_b, const char* rv_b) {
    const auto& idx = net_.indexer();
    return net_.arc_allows(role_of(word_a, role_a), idx.encode(parse_rv(rv_a)),
                           role_of(word_b, role_b), idx.encode(parse_rv(rv_b)));
  }

  RoleValue parse_rv(const std::string& s) {
    const auto dash = s.rfind('-');
    const std::string lab = s.substr(0, dash);
    const std::string mod = s.substr(dash + 1);
    return RoleValue{bundle_.grammar.label(lab),
                     mod == "nil" ? cdg::kNil : std::stoi(mod)};
  }

  grammars::CdgBundle bundle_;
  cdg::SequentialParser parser_;
  cdg::Sentence sentence_;
  Network net_;
};

using S = std::set<std::string>;

// --------------------------------------------------------------------
// Figure 1: initial CN.  Each role holds every T-allowed label crossed
// with every modifiee (nil + all other positions; no self-modification).
// --------------------------------------------------------------------
TEST_F(GoldenFigures, Figure1_InitialNetwork) {
  EXPECT_EQ(role_set(1, "governor"),
            (S{"DET-nil", "DET-2", "DET-3", "SUBJ-nil", "SUBJ-2", "SUBJ-3",
               "ROOT-nil", "ROOT-2", "ROOT-3"}));
  EXPECT_EQ(role_set(1, "needs"),
            (S{"BLANK-nil", "BLANK-2", "BLANK-3", "NP-nil", "NP-2", "NP-3",
               "S-nil", "S-2", "S-3"}));
  EXPECT_EQ(role_set(2, "governor"),
            (S{"DET-nil", "DET-1", "DET-3", "SUBJ-nil", "SUBJ-1", "SUBJ-3",
               "ROOT-nil", "ROOT-1", "ROOT-3"}));
  EXPECT_EQ(role_set(2, "needs"),
            (S{"BLANK-nil", "BLANK-1", "BLANK-3", "NP-nil", "NP-1", "NP-3",
               "S-nil", "S-1", "S-3"}));
  EXPECT_EQ(role_set(3, "governor"),
            (S{"DET-nil", "DET-1", "DET-2", "SUBJ-nil", "SUBJ-1", "SUBJ-2",
               "ROOT-nil", "ROOT-1", "ROOT-2"}));
  EXPECT_EQ(role_set(3, "needs"),
            (S{"BLANK-nil", "BLANK-1", "BLANK-2", "NP-nil", "NP-1", "NP-2",
               "S-nil", "S-1", "S-2"}));

  // §1.2 size accounting: p*n role values per role, O(n^2) overall.
  EXPECT_EQ(net_.total_alive(), 6u * 9u);
}

// --------------------------------------------------------------------
// Figure 2: after the first unary constraint (verbs are ungoverned
// ROOTs) only ROOT-nil survives in the governor role of "runs"; all
// other roles are untouched.
// --------------------------------------------------------------------
TEST_F(GoldenFigures, Figure2_FirstUnaryConstraint) {
  parser_.step_unary(net_, 0);
  EXPECT_EQ(role_set(3, "governor"), (S{"ROOT-nil"}));
  EXPECT_EQ(role_set(3, "needs"),
            (S{"BLANK-nil", "BLANK-1", "BLANK-2", "NP-nil", "NP-1", "NP-2",
               "S-nil", "S-1", "S-2"}));
  EXPECT_EQ(role_set(1, "governor").size(), 9u);
  EXPECT_EQ(role_set(2, "governor").size(), 9u);
}

// --------------------------------------------------------------------
// Figure 3: after all unary constraints.
// --------------------------------------------------------------------
TEST_F(GoldenFigures, Figure3_AfterUnaryPropagation) {
  parser_.run_unary(net_);
  EXPECT_EQ(role_set(1, "governor"), (S{"DET-2", "DET-3"}));
  EXPECT_EQ(role_set(1, "needs"), (S{"BLANK-nil"}));
  EXPECT_EQ(role_set(2, "governor"), (S{"SUBJ-1", "SUBJ-3"}));
  EXPECT_EQ(role_set(2, "needs"), (S{"NP-1", "NP-3"}));
  EXPECT_EQ(role_set(3, "governor"), (S{"ROOT-nil"}));
  EXPECT_EQ(role_set(3, "needs"), (S{"S-1", "S-2"}));

  // Figure 3's pictured matrices (between the surviving role values)
  // are still all ones: no binary constraint has run.
  EXPECT_TRUE(arc_bit(2, "governor", "SUBJ-1", 3, "governor", "ROOT-nil"));
  EXPECT_TRUE(arc_bit(2, "governor", "SUBJ-3", 3, "governor", "ROOT-nil"));
  EXPECT_TRUE(arc_bit(1, "governor", "DET-2", 2, "needs", "NP-1"));
  EXPECT_TRUE(arc_bit(1, "governor", "DET-3", 2, "needs", "NP-3"));
  EXPECT_TRUE(arc_bit(1, "governor", "DET-2", 3, "needs", "S-1"));
  EXPECT_TRUE(arc_bit(1, "governor", "DET-3", 3, "needs", "S-2"));
}

// --------------------------------------------------------------------
// Figure 4: the first binary constraint (a SUBJ is governed by a ROOT
// to its right) zeroes exactly the (SUBJ-1, ROOT-nil) entry of the
// governor-governor matrix; the other pictured matrices keep all ones.
// --------------------------------------------------------------------
TEST_F(GoldenFigures, Figure4_FirstBinaryConstraint) {
  parser_.run_unary(net_);
  parser_.step_binary(net_, 0);
  EXPECT_FALSE(arc_bit(2, "governor", "SUBJ-1", 3, "governor", "ROOT-nil"));
  EXPECT_TRUE(arc_bit(2, "governor", "SUBJ-3", 3, "governor", "ROOT-nil"));
  // DET x NP and DET x S matrices untouched (Fig. 4 bottom).
  for (const char* det : {"DET-2", "DET-3"}) {
    for (const char* np : {"NP-1", "NP-3"})
      EXPECT_TRUE(arc_bit(1, "governor", det, 2, "needs", np)) << det << np;
    for (const char* s : {"S-1", "S-2"})
      EXPECT_TRUE(arc_bit(1, "governor", det, 3, "needs", s)) << det << s;
  }
  // Domains unchanged until consistency maintenance runs.
  EXPECT_EQ(role_set(2, "governor"), (S{"SUBJ-1", "SUBJ-3"}));
}

// --------------------------------------------------------------------
// Figure 5: consistency maintenance removes SUBJ-1 (its row against
// runs' governor role is all zeros).
// --------------------------------------------------------------------
TEST_F(GoldenFigures, Figure5_ConsistencyMaintenance) {
  parser_.run_unary(net_);
  parser_.step_binary(net_, 0);
  const int eliminated = net_.consistency_step();
  EXPECT_EQ(eliminated, 1);
  EXPECT_EQ(role_set(2, "governor"), (S{"SUBJ-3"}));
  // Fig. 5 still shows ambiguity elsewhere.
  EXPECT_EQ(role_set(1, "governor"), (S{"DET-2", "DET-3"}));
  EXPECT_EQ(role_set(2, "needs"), (S{"NP-1", "NP-3"}));
  EXPECT_EQ(role_set(3, "needs"), (S{"S-1", "S-2"}));
}

// --------------------------------------------------------------------
// Figure 6: all binary constraints + consistency maintenance leave the
// unique analysis.
// --------------------------------------------------------------------
TEST_F(GoldenFigures, Figure6_AfterAllBinaryConstraints) {
  parser_.run_unary(net_);
  parser_.run_binary(net_);
  net_.filter();
  EXPECT_EQ(role_set(1, "governor"), (S{"DET-2"}));
  EXPECT_EQ(role_set(1, "needs"), (S{"BLANK-nil"}));
  EXPECT_EQ(role_set(2, "governor"), (S{"SUBJ-3"}));
  EXPECT_EQ(role_set(2, "needs"), (S{"NP-1"}));
  EXPECT_EQ(role_set(3, "governor"), (S{"ROOT-nil"}));
  EXPECT_EQ(role_set(3, "needs"), (S{"S-2"}));
}

// --------------------------------------------------------------------
// Figure 7: the precedence graph of the unique parse.
// --------------------------------------------------------------------
TEST_F(GoldenFigures, Figure7_PrecedenceGraph) {
  cdg::ParseResult r = parser_.parse(net_);
  EXPECT_TRUE(r.accepted);
  EXPECT_FALSE(r.ambiguous);

  auto parses = cdg::extract_parses(net_);
  ASSERT_EQ(parses.size(), 1u);
  const std::string rendered = cdg::render_solution(net_, parses[0]);
  EXPECT_EQ(rendered,
            "Word=The Position=1 G=DET-2 N=BLANK-nil\n"
            "Word=program Position=2 G=SUBJ-3 N=NP-1\n"
            "Word=runs Position=3 G=ROOT-nil N=S-2\n");

  const auto edges = cdg::precedence_graph(net_, parses[0]);
  const auto& g = bundle_.grammar;
  // Governor edges: The -> program (DET), program -> runs (SUBJ),
  // runs -> nil (ROOT).
  auto find_edge = [&](int from, const char* role) {
    for (const auto& e : edges)
      if (e.from == from && e.role == g.role(role)) return e;
    ADD_FAILURE() << "edge not found";
    return cdg::PrecedenceEdge{};
  };
  EXPECT_EQ(find_edge(1, "governor").to, 2);
  EXPECT_EQ(find_edge(1, "governor").label, g.label("DET"));
  EXPECT_EQ(find_edge(2, "governor").to, 3);
  EXPECT_EQ(find_edge(2, "governor").label, g.label("SUBJ"));
  EXPECT_EQ(find_edge(3, "governor").to, cdg::kNil);
  EXPECT_EQ(find_edge(3, "governor").label, g.label("ROOT"));
}

// --------------------------------------------------------------------
// End-to-end sanity on sentences near the worked example.
// --------------------------------------------------------------------
TEST_F(GoldenFigures, AcceptsAndRejectsNearbySentences) {
  auto parse_text = [&](const std::string& text) {
    cdg::Sentence s = bundle_.tag(text);
    Network net = parser_.make_network(s);
    return parser_.parse(net).accepted;
  };
  EXPECT_TRUE(parse_text("The dog runs"));
  EXPECT_TRUE(parse_text("A compiler crashes"));
  // The toy grammar's binary constraints are pairwise implications, so
  // "The runs" is (vacuously) accepted: with no SUBJ role value in the
  // network, "a verb with label S needs a SUBJ to its left" never
  // fires.  The paper's grammar has the same property; the richer
  // English grammar closes this hole.
  EXPECT_TRUE(parse_text("The runs"));
  // Ungrammatical: determiner must precede its noun.
  EXPECT_FALSE(parse_text("program The runs"));
  // Ungrammatical: a lone verb's needs role has no possible modifiee.
  EXPECT_FALSE(parse_text("runs"));
  // Ungrammatical: the noun cannot be SUBJ of both verbs, and each
  // verb's ROOT requirement forces contradictory modifiees on it.
  EXPECT_FALSE(parse_text("The program runs halts"));
}

}  // namespace
