// Reference parser for constraint dependency grammar, written straight
// from the paper's §1.2-1.4 with none of the engines' machinery.
//
// Domains are std::set<RoleValue>s and the arcs one explicit set of
// allowed role-value pairs.  The pairs exist only between values that
// survived unary propagation.  Every constraint is run through the AST
// interpreter (cdg::eval_constraint).  No arena, truth masks, hoisting
// or kernels.  The engines share all of those, so agreement between
// them proves little; agreement with this file is the check.  The
// interpreter itself is the one evaluator the engines run too; its
// semantics are pinned by constraint_eval_test and the golden tables.
#pragma once

#include <set>
#include <vector>

#include "cdg/grammar.h"
#include "cdg/lexicon.h"
#include "cdg/role_value.h"

namespace parsec::oracle {

/// (label, modifiee), ordered so std::set can hold it.
struct Value {
  cdg::LabelId label;
  cdg::WordPos mod;
  auto operator<=>(const Value&) const = default;
};

/// Final domain of every role, indexed (word - 1) * q + role id like
/// the engines' dense roles.
using Domains = std::vector<std::set<Value>>;

/// Runs §1.2 (initial domains), §1.3 (unary, then binary constraints)
/// and §1.4 (filtering until nothing changes) on `s`.
Domains parse(const cdg::Grammar& g, const cdg::Sentence& s);

}  // namespace parsec::oracle
