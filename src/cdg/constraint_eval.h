// Constraint evaluation (paper §1.3-1.4).
//
// A constraint (if A C) is *violated* by a role-value binding iff the
// antecedent evaluates TRUE and the consequent FALSE; a violating role
// value (unary) or role-value pair (binary) is eliminated / its arc bit
// zeroed.  Both variables of a binary constraint must be tried in both
// assignments (x=a,y=b) and (x=b,y=a).
//
// One evaluator, a tree-walking interpreter over the AST, serves every
// engine: whole constraints, their residual pairs and the hoisted parts
// of the factored form below all run through it.
#pragma once

#include <vector>

#include "cdg/constraint.h"
#include "cdg/lexicon.h"
#include "cdg/role_value.h"
#include "cdg/types.h"

namespace parsec::cdg {

/// One bound role-value variable: the value itself plus the role/word
/// it lives in (needed by (role v) and (pos v)).
struct Binding {
  RoleValue rv;
  RoleId role = 0;
  WordPos pos = 0;
};

/// Everything a constraint may consult.  `y` is ignored for unary
/// constraints.
struct EvalContext {
  const Sentence* sentence = nullptr;
  Binding x;
  Binding y;
};

/// True iff Bool expression `e` holds under the binding.  Accessing a
/// property of the nil word yields an invalid value that every
/// comparison reads as false, which matches the paper's guarded usage
/// ("(not (eq (mod x) nil))").  `and`/`or`/`if` stop at the first
/// decisive operand; an `and` with no operands is true.
bool holds(const Expr& e, const EvalContext& ctx);

/// True iff the constraint is *satisfied* (not violated) by the binding.
bool eval_constraint(const Constraint& c, const EvalContext& ctx);

/// True iff the antecedent holds and the consequent fails.
inline bool violates(const Constraint& c, const EvalContext& ctx) {
  return !eval_constraint(c, ctx);
}

// ---------------------------------------------------------------------
// Factored form: compile-time predicate hoisting (the vectorized
// evaluation layer).
//
// Both the antecedent and the consequent of a constraint are (treated
// as) conjunctions.  Each top-level conjunct either mentions only x,
// only y, or genuinely couples the two variables.  The single-variable
// conjuncts are hoisted into standalone conjunctions (`ante_x`,
// `ante_y`, `cons_x`, `cons_y`) that can be evaluated once per (role,
// role value) and materialized as packed truth bitmasks
// (kernels::MaskCache); coupling conjuncts stay behind as a *residual*,
// flagged per side.
//
// Soundness of the three-valued decision a sweep makes per pair, for
// one variable assignment (x bound to value a, y to value b):
//   * A is known false  iff  !ante_x(a) || !ante_y(b)      (any hoisted
//     conjunct false falsifies the conjunction)     => satisfied;
//   * A is known true   iff  ante_x(a) && ante_y(b) && !ante_residual;
//   * C is known true   iff  cons_x(a) && cons_y(b) && !cons_residual
//                                                    => satisfied;
//   * C is known false  iff  !cons_x(a) || !cons_y(b);
//   * violated iff A known true and C known false; anything else that
//     is not "satisfied" above is undecided and falls back to the whole
//     constraint (`full`).
//
// Unary constraints get a different split: antecedent conjuncts that do
// not consult the role value itself (no (lab x) / (mod x) access — only
// (role x), (pos x), (cat (word ...)) and constants) are hoisted into
// `unary_guard`, a conjunction that is constant across the role's whole
// domain.  When the guard is false the constraint is vacuously
// satisfied for every role value and the per-value sweep is skipped
// entirely; otherwise `unary_rest` — the constraint minus the guard
// conjuncts — is evaluated per value, with a result identical to
// `full`.
//
// Every part is an owned copy of the source subtrees, so a factored
// constraint outlives the Constraint and Grammar it was built from.
// ---------------------------------------------------------------------

/// One hoisted conjunct, with the facts a mask builder needs to
/// evaluate it at the cheapest granularity: a conjunct that never reads
/// (mod v) has the same truth value for the whole
/// label run [l*(n+1), (l+1)*(n+1)) of the dense rv axis, one that
/// never reads (lab v) is constant across labels for a fixed modifiee,
/// and one that reads neither is constant across the entire domain.
/// `uses_site` marks access to (role v) / (pos v): a site-independent
/// term additionally has the same truth pattern for every role.
struct HoistedTerm {
  Expr expr;
  bool uses_lab = false;   // reads (lab v)
  bool uses_mod = false;   // reads (mod v)
  bool uses_site = false;  // reads (role v) or (pos v)
};

struct FactoredConstraint {
  Constraint full;  // the whole constraint (residual fallback)

  // Binary factoring: hoisted single-variable conjunctions, each an
  // `and` node; one with no operands is constant true.
  Expr ante_x{Op::And}, ante_y{Op::And};
  Expr cons_x{Op::And}, cons_y{Op::And};
  bool ante_residual = false;  // antecedent keeps a pairwise conjunct
  bool cons_residual = false;  // consequent keeps one

  // The same four hoisted conjunctions, term by term, for the mask
  // builder (conjunction of a part's term patterns == the part).
  std::vector<HoistedTerm> ante_x_terms, ante_y_terms;
  std::vector<HoistedTerm> cons_x_terms, cons_y_terms;

  // Unary hoisting: role-value-independent antecedent guard (an `and`
  // node; no operands when nothing hoists) plus the remainder of the
  // constraint (equal to `full` whenever the guard holds).  Unused for
  // binary constraints.
  Expr unary_guard{Op::And};
  Expr unary_rest{Op::And};
};

/// Hoisting pass over one constraint.
FactoredConstraint factor_constraint(const Constraint& c);

/// Factors a whole constraint set (engine construction time).
std::vector<FactoredConstraint> factor_all(const std::vector<Constraint>& cs);

/// Evaluates a hoisted part against a single binding.  The binding is
/// installed in BOTH variable slots, so a part hoisted from either the
/// x or the y side resolves correctly.
bool eval_hoisted(const Expr& part, const Sentence& sent, const Binding& b);

}  // namespace parsec::cdg
