#include "cdg/constraint_eval.h"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "cdg/constraint_parser.h"
#include "cdg/grammar.h"
#include "util/rng.h"

namespace {

using namespace parsec::cdg;

class ConstraintEvalTest : public ::testing::Test {
 protected:
  ConstraintEvalTest() {
    det = g.add_category("det");
    noun = g.add_category("noun");
    verb = g.add_category("verb");
    SUBJ = g.add_label("SUBJ");
    ROOT = g.add_label("ROOT");
    DET = g.add_label("DET");
    governor = g.add_role("governor");
    needs = g.add_role("needs");
    // "The program runs"
    s.words = {"The", "program", "runs"};
    s.cats = {det, noun, verb};
  }

  EvalContext ctx_for(RoleValue xrv, RoleId xrole, WordPos xpos) {
    EvalContext ctx;
    ctx.sentence = &s;
    ctx.x = Binding{xrv, xrole, xpos};
    return ctx;
  }

  Grammar g;
  Sentence s;
  CatId det, noun, verb;
  LabelId SUBJ, ROOT, DET;
  RoleId governor, needs;
};

TEST_F(ConstraintEvalTest, PaperFirstUnaryConstraintSemantics) {
  Constraint c = parse_constraint(g, R"(
      (if (and (eq (cat (word (pos x))) verb)
               (eq (role x) governor))
          (and (eq (lab x) ROOT)
               (eq (mod x) nil))))");
  // runs.governor = ROOT-nil: satisfied.
  EXPECT_TRUE(eval_constraint(c, ctx_for({ROOT, kNil}, governor, 3)));
  // runs.governor = SUBJ-1: antecedent true, consequent false: violated.
  EXPECT_FALSE(eval_constraint(c, ctx_for({SUBJ, 1}, governor, 3)));
  // runs.governor = ROOT-1 (non-nil modifiee): violated.
  EXPECT_FALSE(eval_constraint(c, ctx_for({ROOT, 1}, governor, 3)));
  // program.governor = SUBJ-3: antecedent false (noun): satisfied.
  EXPECT_TRUE(eval_constraint(c, ctx_for({SUBJ, 3}, governor, 2)));
  // runs.needs: antecedent false (role mismatch): satisfied.
  EXPECT_TRUE(eval_constraint(c, ctx_for({SUBJ, 1}, needs, 3)));
}

TEST_F(ConstraintEvalTest, BinaryConstraintBothVariables) {
  Constraint c = parse_constraint(g, R"(
      (if (and (eq (lab x) SUBJ) (eq (lab y) ROOT))
          (and (eq (mod x) (pos y)) (lt (pos x) (pos y)))))");
  EvalContext ctx;
  ctx.sentence = &s;
  // x = SUBJ-3 at word 2, y = ROOT-nil at word 3: satisfied.
  ctx.x = Binding{{SUBJ, 3}, governor, 2};
  ctx.y = Binding{{ROOT, kNil}, governor, 3};
  EXPECT_TRUE(eval_constraint(c, ctx));
  // x = SUBJ-1 at word 2: mod (1) != pos y (3): violated.
  ctx.x = Binding{{SUBJ, 1}, governor, 2};
  EXPECT_FALSE(eval_constraint(c, ctx));
  // Swapped: x = ROOT, y = SUBJ: antecedent false: satisfied.
  ctx.x = Binding{{ROOT, kNil}, governor, 3};
  ctx.y = Binding{{SUBJ, 1}, governor, 2};
  EXPECT_TRUE(eval_constraint(c, ctx));
}

TEST_F(ConstraintEvalTest, CatOfNilWordIsInvalidNotCrash) {
  // (cat (word (mod x))) with mod = nil: the access is invalid and every
  // comparison with it is false, so the antecedent can't fire.
  Constraint c = parse_constraint(g, R"(
      (if (eq (cat (word (mod x))) noun)
          (eq (lab x) DET)))");
  // mod = nil: antecedent false -> satisfied regardless of label.
  EXPECT_TRUE(eval_constraint(c, ctx_for({ROOT, kNil}, governor, 3)));
  // mod = 2 (noun), label != DET: violated.
  EXPECT_FALSE(eval_constraint(c, ctx_for({ROOT, 2}, governor, 3)));
  // mod = 3 (verb): antecedent false -> satisfied.
  EXPECT_TRUE(eval_constraint(c, ctx_for({ROOT, 3}, governor, 1)));
}

TEST_F(ConstraintEvalTest, OutOfRangePositionIsInvalid) {
  Constraint c = parse_constraint(g, R"(
      (if (eq (cat (word 9)) noun) (eq (lab x) DET)))");
  // word 9 does not exist: antecedent false.
  EXPECT_TRUE(eval_constraint(c, ctx_for({ROOT, kNil}, governor, 1)));
}

TEST_F(ConstraintEvalTest, NotAndOrSemantics) {
  Constraint c = parse_constraint(g, R"(
      (if (not (eq (mod x) nil))
          (or (eq (lab x) SUBJ) (eq (lab x) DET))))");
  EXPECT_TRUE(eval_constraint(c, ctx_for({SUBJ, 1}, governor, 2)));
  EXPECT_TRUE(eval_constraint(c, ctx_for({DET, 2}, governor, 1)));
  EXPECT_FALSE(eval_constraint(c, ctx_for({ROOT, 1}, governor, 2)));
  EXPECT_TRUE(eval_constraint(c, ctx_for({ROOT, kNil}, governor, 2)));
}

TEST_F(ConstraintEvalTest, GtLtOnPositions) {
  Constraint c = parse_constraint(g, R"(
      (if (gt (pos x) 1) (lt (pos x) 3)))");
  EXPECT_TRUE(eval_constraint(c, ctx_for({SUBJ, 1}, governor, 1)));
  EXPECT_TRUE(eval_constraint(c, ctx_for({SUBJ, 1}, governor, 2)));
  EXPECT_FALSE(eval_constraint(c, ctx_for({SUBJ, 1}, governor, 3)));
}

// A factored constraint owns copies of its parts, so it evaluates the
// same after the Constraint and Grammar it came from are destroyed (a
// part left pointing into either is a use-after-free under ASan).  Its
// empty conjunctions hold.
TEST_F(ConstraintEvalTest, FactoredConstraintOutlivesItsSourceAndGrammar) {
  // Every part's verdict: full, guard, rest, ante_x/y, cons_x/y.
  using Parts = std::array<bool, 7>;
  const auto parts_of = [](const FactoredConstraint& f,
                           const EvalContext& ctx) {
    const Sentence& sent = *ctx.sentence;
    return Parts{eval_constraint(f.full, ctx),
                 eval_hoisted(f.unary_guard, sent, ctx.x),
                 holds(f.unary_rest, ctx),
                 eval_hoisted(f.ante_x, sent, ctx.x),
                 eval_hoisted(f.ante_y, sent, ctx.y),
                 eval_hoisted(f.cons_x, sent, ctx.x),
                 eval_hoisted(f.cons_y, sent, ctx.y)};
  };
  std::vector<EvalContext> ctxs;
  for (LabelId l : {SUBJ, ROOT, DET})
    for (WordPos m = 0; m <= 3; ++m)
      for (WordPos p = 1; p <= 3; ++p) {
        EvalContext ctx = ctx_for({l, m}, p == 3 ? governor : needs, p);
        ctx.y = Binding{{SUBJ, p}, governor, (p % 3) + 1};
        ctxs.push_back(ctx);
      }

  std::vector<FactoredConstraint> factored;
  std::vector<Parts> before;
  {
    auto source = std::make_unique<Grammar>(g);
    source->add_constraint_text(
        "verbs-are-roots",
        "(if (and (eq (cat (word (pos x))) verb) (eq (role x) governor)) "
        "(and (eq (lab x) ROOT) (eq (mod x) nil)))");
    source->add_constraint_text(
        "subj-left-of-root",
        "(if (and (eq (lab x) SUBJ) (eq (lab y) ROOT)) "
        "(and (eq (mod x) (pos y)) (lt (pos x) (pos y))))");
    factored = factor_all(source->unary_constraints());
    for (FactoredConstraint& f : factor_all(source->binary_constraints()))
      factored.push_back(std::move(f));
    for (const FactoredConstraint& f : factored)
      for (const EvalContext& ctx : ctxs) before.push_back(parts_of(f, ctx));
  }  // grammar and constraints destroyed

  std::size_t k = 0;
  for (const FactoredConstraint& f : factored)
    for (const EvalContext& ctx : ctxs)
      EXPECT_EQ(parts_of(f, ctx), before[k++]) << f.full.name;

  // The unary constraint hoists nothing into the binary parts, and the
  // binary one's consequent has no y-only conjunct: each is an `and`
  // with no operands, which holds for every binding.
  ASSERT_EQ(factored.size(), 2u);
  EXPECT_TRUE(factored[0].ante_x.args.empty());
  EXPECT_TRUE(factored[1].cons_y.args.empty());
  EXPECT_TRUE(factored[1].unary_guard.args.empty());
  for (const EvalContext& ctx : ctxs) {
    EXPECT_TRUE(eval_hoisted(factored[0].ante_x, s, ctx.x));
    EXPECT_TRUE(eval_hoisted(factored[1].cons_y, s, ctx.y));
    EXPECT_TRUE(eval_hoisted(Expr{Op::And}, s, ctx.x));
  }
}

}  // namespace
