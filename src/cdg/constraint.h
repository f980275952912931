// Constraint AST for the CDG constraint language (paper §1.3).
//
// Constraints are if-then rules over one (unary) or two (binary) role-value
// variables, written with the paper's access functions and predicates:
//
//   access:     (lab x) (mod x) (role x) (pos x) (word p) (cat w)
//   predicates: (and p q) (or p q) (not p) (eq a b) (gt a b) (lt a b)
//
// Every function is constant-time, so a constraint evaluates in O(1)
// (paper §1.3).  The AST is typed at parse time (see constraint_parser);
// evaluation lives in constraint_eval.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cdg/types.h"

namespace parsec::cdg {

/// Static type of an expression value.
enum class ValueType : std::uint8_t {
  Bool,      // predicate results
  Label,     // (lab x), label constants
  RoleT,     // (role x), role constants
  Cat,       // (cat w), category constants
  Pos,       // (pos x), (mod x), integer literals, nil (= position 0)
  Word,      // (word p): a word handle, identified by its position
};

const char* to_string(ValueType t);

/// AST node operator.
enum class Op : std::uint8_t {
  // top level
  If,        // args: {antecedent: Bool, consequent: Bool}
  // predicates (Bool)
  And, Or,   // n-ary (>= 2) for convenience; the paper writes them binary
  Not,
  Eq, Gt, Lt,
  // access functions
  Lab, Mod, RoleOf, PosOf,  // arg: Var
  WordAt,                   // arg: Pos expr -> Word
  CatOf,                    // arg: Word expr -> Cat
  // leaves
  Var,       // value = 0 for x, 1 for y
  ConstSym,  // value = symbol id; type says which family
  ConstInt,  // value = integer literal (positions)
};

const char* to_string(Op op);

/// One AST node.  Children are stored inline by value; constraint trees
/// are tiny (the paper bounds them by a constant).
struct Expr {
  Op op;
  ValueType type = ValueType::Bool;
  int value = 0;               // Var index / ConstSym id / ConstInt value
  std::vector<Expr> args = {};

  /// Renders back to the paper's surface syntax (for diagnostics).
  std::string to_string_with(const class Grammar& g) const;
};

/// A parsed constraint: `(if antecedent consequent)` plus metadata.
struct Constraint {
  std::string name;   // optional human-readable name ("verbs-are-roots")
  int arity = 1;      // 1 = unary (uses x only), 2 = binary (uses x and y)
  Expr root;          // op == Op::If

  const Expr& antecedent() const { return root.args[0]; }
  const Expr& consequent() const { return root.args[1]; }
};

}  // namespace parsec::cdg
