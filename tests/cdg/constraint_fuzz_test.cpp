// Constraint-language fuzzing: random well-typed constraint ASTs are
// printed to the paper's surface syntax, re-parsed, factored and
// evaluated — printer, parser, type-checker, interpreter and the
// hoisting pass must all agree on every binding.
#include <gtest/gtest.h>

#include "cdg/constraint_eval.h"
#include "cdg/constraint_parser.h"
#include "cdg/grammar.h"
#include "grammars/toy_grammar.h"
#include "util/rng.h"

namespace {

using namespace parsec;
using namespace parsec::cdg;
using parsec::util::Rng;

/// Generates random well-typed expressions over the toy grammar's
/// symbols.
class AstFuzzer {
 public:
  AstFuzzer(const Grammar& g, Rng& rng) : g_(g), rng_(rng) {}

  Constraint constraint() {
    Constraint c;
    c.root.op = Op::If;
    c.root.type = ValueType::Bool;
    c.root.args.push_back(boolean(3));
    c.root.args.push_back(boolean(3));
    c.arity = uses_y_ ? 2 : 1;
    return c;
  }

 private:
  Expr var() {
    Expr e;
    e.op = Op::Var;
    e.type = ValueType::Bool;
    e.value = rng_.next_bool(0.4) ? 1 : 0;
    if (e.value == 1) uses_y_ = true;
    return e;
  }

  Expr access(Op op, ValueType type) {
    Expr e;
    e.op = op;
    e.type = type;
    e.args.push_back(var());
    return e;
  }

  Expr pos_expr() {
    switch (rng_.next_below(3)) {
      case 0:
        return access(Op::Mod, ValueType::Pos);
      case 1:
        return access(Op::PosOf, ValueType::Pos);
      default: {
        Expr e;
        e.op = Op::ConstInt;
        e.type = ValueType::Pos;
        e.value = static_cast<int>(rng_.next_below(5));  // incl. nil = 0
        return e;
      }
    }
  }

  Expr value_pair_lhs(ValueType t) {
    switch (t) {
      case ValueType::Label:
        return access(Op::Lab, ValueType::Label);
      case ValueType::RoleT:
        return access(Op::RoleOf, ValueType::RoleT);
      case ValueType::Cat: {
        Expr w;
        w.op = Op::WordAt;
        w.type = ValueType::Word;
        w.args.push_back(pos_expr());
        Expr e;
        e.op = Op::CatOf;
        e.type = ValueType::Cat;
        e.args.push_back(std::move(w));
        return e;
      }
      default:
        return pos_expr();
    }
  }

  Expr value_pair_rhs(ValueType t) {
    // Half the time a structural expression, half a constant.
    if (rng_.next_bool() && t == ValueType::Pos) return pos_expr();
    Expr e;
    e.type = t;
    switch (t) {
      case ValueType::Label:
        e.op = Op::ConstSym;
        e.value = static_cast<int>(rng_.next_below(g_.num_labels()));
        return e;
      case ValueType::RoleT:
        e.op = Op::ConstSym;
        e.value = static_cast<int>(rng_.next_below(g_.num_roles()));
        return e;
      case ValueType::Cat:
        e.op = Op::ConstSym;
        e.value = static_cast<int>(rng_.next_below(g_.num_categories()));
        return e;
      default:
        e.op = Op::ConstInt;
        e.value = static_cast<int>(rng_.next_below(5));
        return e;
    }
  }

  Expr comparison() {
    Expr e;
    e.type = ValueType::Bool;
    const int kind = static_cast<int>(rng_.next_below(4));
    if (kind >= 2) {
      // gt / lt on positions.
      e.op = kind == 2 ? Op::Gt : Op::Lt;
      e.args.push_back(pos_expr());
      e.args.push_back(pos_expr());
      return e;
    }
    e.op = Op::Eq;
    const ValueType types[] = {ValueType::Label, ValueType::RoleT,
                               ValueType::Cat, ValueType::Pos};
    const ValueType t = types[rng_.next_below(4)];
    e.args.push_back(value_pair_lhs(t));
    e.args.push_back(value_pair_rhs(t));
    return e;
  }

  Expr boolean(int depth) {
    if (depth == 0 || rng_.next_bool(0.4)) return comparison();
    Expr e;
    e.type = ValueType::Bool;
    switch (rng_.next_below(3)) {
      case 0:
        e.op = Op::And;
        break;
      case 1:
        e.op = Op::Or;
        break;
      default:
        e.op = Op::Not;
        e.args.push_back(boolean(depth - 1));
        return e;
    }
    const int arity = 2 + static_cast<int>(rng_.next_below(2));
    for (int i = 0; i < arity; ++i) e.args.push_back(boolean(depth - 1));
    return e;
  }

  const Grammar& g_;
  Rng& rng_;
  bool uses_y_ = false;
};

class ConstraintFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ConstraintFuzz, PrintParseEvalRoundTrip) {
  auto bundle = grammars::make_toy_grammar();
  const Grammar& g = bundle.grammar;
  Rng rng(9000 + GetParam());
  cdg::Sentence s = bundle.tag("The program runs");

  for (int iter = 0; iter < 40; ++iter) {
    AstFuzzer fuzz(g, rng);
    Constraint original = fuzz.constraint();
    const std::string text = original.root.to_string_with(g);

    // Re-parse the printed form.
    Constraint reparsed = parse_constraint(g, text);
    EXPECT_EQ(reparsed.arity, original.arity) << text;
    EXPECT_EQ(reparsed.root.to_string_with(g), text) << "print fixpoint";

    // Evaluate everything on a sweep of bindings.
    EvalContext ctx;
    ctx.sentence = &s;
    for (int trial = 0; trial < 60; ++trial) {
      ctx.x = Binding{RoleValue{static_cast<int>(rng.next_below(6)),
                                static_cast<int>(rng.next_below(4))},
                      static_cast<int>(rng.next_below(2)),
                      1 + static_cast<int>(rng.next_below(3))};
      ctx.y = Binding{RoleValue{static_cast<int>(rng.next_below(6)),
                                static_cast<int>(rng.next_below(4))},
                      static_cast<int>(rng.next_below(2)),
                      1 + static_cast<int>(rng.next_below(3))};
      const bool a = eval_constraint(original, ctx);
      EXPECT_EQ(eval_constraint(reparsed, ctx), a) << text;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConstraintFuzz, ::testing::Range(0, 6));

// Differential check of the predicate-hoisting pass (constraint_eval.h
// "Factored form"): on random well-typed constraints, the three-valued
// decision the masked sweep derives from the hoisted parts must be
// sound against the original constraint, and each hoisted part must
// equal the conjunction of its terms (what the mask builder evaluates).
TEST_P(ConstraintFuzz, FactoredDecisionsAreSoundAgainstFullProgram) {
  auto bundle = grammars::make_toy_grammar();
  const Grammar& g = bundle.grammar;
  Rng rng(17000 + GetParam());
  cdg::Sentence s = bundle.tag("The program runs");

  auto conj_of_terms = [&](const std::vector<HoistedTerm>& terms,
                           const Binding& b) {
    for (const HoistedTerm& t : terms)
      if (!eval_hoisted(t.expr, s, b)) return false;
    return true;
  };
  auto random_binding = [&]() {
    return Binding{RoleValue{static_cast<int>(rng.next_below(6)),
                             static_cast<int>(rng.next_below(4))},
                   static_cast<int>(rng.next_below(2)),
                   1 + static_cast<int>(rng.next_below(3))};
  };

  for (int iter = 0; iter < 40; ++iter) {
    AstFuzzer fuzz(g, rng);
    Constraint original = fuzz.constraint();
    const FactoredConstraint f = factor_constraint(original);
    const std::string text = original.root.to_string_with(g);
    EXPECT_EQ(f.full.arity, original.arity) << text;

    EvalContext ctx;
    ctx.sentence = &s;
    for (int trial = 0; trial < 60; ++trial) {
      ctx.x = random_binding();
      ctx.y = random_binding();
      const bool sat = eval_constraint(original, ctx);
      EXPECT_EQ(eval_constraint(f.full, ctx), sat) << text;

      if (f.full.arity == 1) {
        // Unary split: guard false => vacuously satisfied; guard true
        // => the rest decides, identically to the original constraint.
        const bool guard = eval_hoisted(f.unary_guard, s, ctx.x);
        if (!guard) {
          EXPECT_TRUE(sat) << text;
        } else {
          EXPECT_EQ(holds(f.unary_rest, ctx), sat) << text;
        }
        continue;
      }

      // Part == conjunction of its terms (one variable assignment; the
      // hoisted parts read whichever slot holds the binding).
      const bool ax = eval_hoisted(f.ante_x, s, ctx.x);
      const bool ay = eval_hoisted(f.ante_y, s, ctx.y);
      const bool cx = eval_hoisted(f.cons_x, s, ctx.x);
      const bool cy = eval_hoisted(f.cons_y, s, ctx.y);
      EXPECT_EQ(ax, conj_of_terms(f.ante_x_terms, ctx.x)) << text;
      EXPECT_EQ(ay, conj_of_terms(f.ante_y_terms, ctx.y)) << text;
      EXPECT_EQ(cx, conj_of_terms(f.cons_x_terms, ctx.x)) << text;
      EXPECT_EQ(cy, conj_of_terms(f.cons_y_terms, ctx.y)) << text;

      // The sweep's three-valued decision (constraint_eval.h):
      if (!ax || !ay) {
        EXPECT_TRUE(sat) << text << " (A known false)";
      }
      if (cx && cy && !f.cons_residual) {
        EXPECT_TRUE(sat) << text << " (C known true)";
      }
      if (ax && ay && !f.ante_residual && (!cx || !cy)) {
        EXPECT_FALSE(sat) << text << " (A true, C false)";
      }
    }
  }
}

}  // namespace
