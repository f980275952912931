#include "cdg/constraint_eval.h"

#include <cassert>
#include <stdexcept>
#include <utility>

#include "obs/trace.h"

namespace parsec::cdg {

namespace {

/// Runtime value: a tagged int plus a validity flag.  Accessing a
/// property of the nil word (e.g. (cat (word (mod x))) when mod is nil)
/// yields an invalid value; every comparison against it is false.
struct Value {
  int v = 0;
  bool valid = true;
  bool truth = false;  // for Bool values
};

Value make_bool(bool b) { return Value{0, true, b}; }
Value make_int(int v) { return Value{v, true, false}; }
Value make_invalid() { return Value{0, false, false}; }

const Binding& binding_for(const EvalContext& ctx, int var) {
  return var == 0 ? ctx.x : ctx.y;
}

Value eval_expr(const Expr& e, const EvalContext& ctx) {
  switch (e.op) {
    case Op::Lab:
      return make_int(binding_for(ctx, e.args[0].value).rv.label);
    case Op::Mod:
      return make_int(binding_for(ctx, e.args[0].value).rv.mod);
    case Op::RoleOf:
      return make_int(binding_for(ctx, e.args[0].value).role);
    case Op::PosOf:
      return make_int(binding_for(ctx, e.args[0].value).pos);
    case Op::WordAt: {
      Value p = eval_expr(e.args[0], ctx);
      if (!p.valid || p.v < 1 || p.v > ctx.sentence->size())
        return make_invalid();
      return make_int(p.v);
    }
    case Op::CatOf: {
      Value w = eval_expr(e.args[0], ctx);
      if (!w.valid) return make_invalid();
      return make_int(ctx.sentence->cat_at(w.v));
    }
    case Op::ConstInt:
    case Op::ConstSym:
      return make_int(e.value);
    case Op::Eq: {
      Value a = eval_expr(e.args[0], ctx);
      Value b = eval_expr(e.args[1], ctx);
      return make_bool(a.valid && b.valid && a.v == b.v);
    }
    case Op::Gt: {
      Value a = eval_expr(e.args[0], ctx);
      Value b = eval_expr(e.args[1], ctx);
      return make_bool(a.valid && b.valid && a.v > b.v);
    }
    case Op::Lt: {
      Value a = eval_expr(e.args[0], ctx);
      Value b = eval_expr(e.args[1], ctx);
      return make_bool(a.valid && b.valid && a.v < b.v);
    }
    case Op::And: {
      for (const Expr& a : e.args)
        if (!eval_expr(a, ctx).truth) return make_bool(false);
      return make_bool(true);
    }
    case Op::Or: {
      for (const Expr& a : e.args)
        if (eval_expr(a, ctx).truth) return make_bool(true);
      return make_bool(false);
    }
    case Op::Not:
      return make_bool(!eval_expr(e.args[0], ctx).truth);
    case Op::If: {
      // (if A C) as a value: !A || C.
      bool a = eval_expr(e.args[0], ctx).truth;
      if (!a) return make_bool(true);
      return make_bool(eval_expr(e.args[1], ctx).truth);
    }
    case Op::Var:
      break;  // vars only appear under access functions
  }
  throw std::logic_error("malformed constraint AST");
}

}  // namespace

bool holds(const Expr& e, const EvalContext& ctx) {
  return eval_expr(e, ctx).truth;
}

bool eval_constraint(const Constraint& c, const EvalContext& ctx) {
  assert(c.root.op == Op::If);
  return holds(c.root, ctx);
}

// ---------------------------------------------------------------------
// Factoring pass (predicate hoisting)
// ---------------------------------------------------------------------

namespace {

/// Which variables a subtree consults, split by the access kind: the
/// label / modifiee halves of the role value, and the role/position
/// "site" slots.  The mask builder picks an evaluation granularity per
/// hoisted conjunct from these (see HoistedTerm).
struct VarUse {
  bool uses[2] = {false, false};
  bool lab_dep[2] = {false, false};   // (lab v) appears
  bool mod_dep[2] = {false, false};   // (mod v) appears
  bool site_dep[2] = {false, false};  // (role v) / (pos v) appears

  bool rv_dep(int v) const { return lab_dep[v] || mod_dep[v]; }
};

void scan_vars(const Expr& e, VarUse& u) {
  switch (e.op) {
    case Op::Lab:
      u.uses[e.args[0].value] = true;
      u.lab_dep[e.args[0].value] = true;
      return;
    case Op::Mod:
      u.uses[e.args[0].value] = true;
      u.mod_dep[e.args[0].value] = true;
      return;
    case Op::RoleOf:
    case Op::PosOf:
      u.uses[e.args[0].value] = true;
      u.site_dep[e.args[0].value] = true;
      return;
    default:
      for (const Expr& a : e.args) scan_vars(a, u);
      return;
  }
}

/// Top-level conjuncts of a Bool expression (the expression itself when
/// it is not an And).
std::vector<const Expr*> conjuncts_of(const Expr& e) {
  std::vector<const Expr*> out;
  if (e.op == Op::And)
    for (const Expr& a : e.args) out.push_back(&a);
  else
    out.push_back(&e);
  return out;
}

}  // namespace

FactoredConstraint factor_constraint(const Constraint& c) {
  FactoredConstraint f;
  f.full = c;

  // Files each conjunct of `e` under the one variable it reads (x-only
  // and constant conjuncts under x); returns whether one reads both.
  const auto split = [](const Expr& e, Expr& x_part, Expr& y_part,
                        std::vector<HoistedTerm>& x_terms,
                        std::vector<HoistedTerm>& y_terms) {
    bool residual = false;
    for (const Expr* conj : conjuncts_of(e)) {
      VarUse u;
      scan_vars(*conj, u);
      if (u.uses[0] && u.uses[1]) {
        residual = true;  // genuinely pairwise
        continue;
      }
      const int var = u.uses[1] ? 1 : 0;
      (var ? y_part : x_part).args.push_back(*conj);
      (var ? y_terms : x_terms)
          .push_back(HoistedTerm{*conj, u.lab_dep[var], u.mod_dep[var],
                                 u.site_dep[var]});
    }
    return residual;
  };

  if (c.arity == 2) {
    f.ante_residual = split(c.antecedent(), f.ante_x, f.ante_y,
                            f.ante_x_terms, f.ante_y_terms);
    f.cons_residual = split(c.consequent(), f.cons_x, f.cons_y,
                            f.cons_x_terms, f.cons_y_terms);
    return f;
  }

  // Unary: split the antecedent into role-value-independent guard
  // conjuncts and the rest.
  Expr rest{Op::And};
  for (const Expr* conj : conjuncts_of(c.antecedent())) {
    VarUse u;
    scan_vars(*conj, u);
    (u.rv_dep(0) ? rest : f.unary_guard).args.push_back(*conj);
  }
  // unary_rest == full with the guard conjuncts removed: when every
  // guard conjunct is true, If(And(guard, rest), C) == If(And(rest), C),
  // and If(true, C) == C.
  if (rest.args.empty())
    f.unary_rest = c.consequent();
  else
    f.unary_rest = Expr{Op::If, ValueType::Bool, 0,
                        {std::move(rest), c.consequent()}};
  return f;
}

std::vector<FactoredConstraint> factor_all(const std::vector<Constraint>& cs) {
  obs::Span span("cdg.factoring", "compile");
  std::vector<FactoredConstraint> out;
  out.reserve(cs.size());
  for (const Constraint& c : cs) out.push_back(factor_constraint(c));
  span.arg("constraints", static_cast<std::int64_t>(out.size()));
  return out;
}

bool eval_hoisted(const Expr& part, const Sentence& sent, const Binding& b) {
  EvalContext ctx;
  ctx.sentence = &sent;
  ctx.x = b;
  ctx.y = b;  // either variable slot resolves to the same binding
  return holds(part, ctx);
}

}  // namespace parsec::cdg
