#include "oracle/oracle.h"

#include <utility>

#include "cdg/constraint_eval.h"

namespace parsec::oracle {

namespace {

/// One role value together with the role that holds it.
struct Node {
  int role;
  Value v;
  auto operator<=>(const Node&) const = default;
};

/// An unordered pair of nodes in distinct roles, smaller node first.
using Pair = std::pair<Node, Node>;

Pair make_pair_of(const Node& a, const Node& b) {
  return a < b ? Pair{a, b} : Pair{b, a};
}

struct Net {
  const cdg::Grammar& g;
  const cdg::Sentence& s;
  int q;
  Domains dom;
  std::set<Pair> pairs;

  cdg::Binding bind(const Node& a) const {
    return cdg::Binding{cdg::RoleValue{a.v.label, a.v.mod}, a.role % q,
                        a.role / q + 1};
  }

  bool unary_ok(const cdg::Constraint& c, const Node& a) const {
    cdg::EvalContext ctx;
    ctx.sentence = &s;
    ctx.x = bind(a);
    return cdg::eval_constraint(c, ctx);
  }

  /// Both variable assignments must satisfy the constraint (§1.3).
  bool binary_ok(const cdg::Constraint& c, const Node& a,
                 const Node& b) const {
    cdg::EvalContext ctx;
    ctx.sentence = &s;
    ctx.x = bind(a);
    ctx.y = bind(b);
    if (!cdg::eval_constraint(c, ctx)) return false;
    std::swap(ctx.x, ctx.y);
    return cdg::eval_constraint(c, ctx);
  }

  /// §1.4: every other role holds a value the pair set allows with `a`.
  bool supported(const Node& a) const {
    for (int r = 0; r < static_cast<int>(dom.size()); ++r) {
      if (r == a.role) continue;
      bool any = false;
      for (const Value& v : dom[r])
        if (pairs.count(make_pair_of(a, Node{r, v}))) {
          any = true;
          break;
        }
      if (!any) return false;
    }
    return true;
  }
};

}  // namespace

Domains parse(const cdg::Grammar& g, const cdg::Sentence& s) {
  const int n = s.size();
  Net net{g, s, g.num_roles(), {}, {}};
  const int R = n * net.q;

  // §1.2: every label the role allows for the word's category, with
  // every modifiee but the word itself.
  net.dom.resize(static_cast<std::size_t>(R));
  for (int role = 0; role < R; ++role) {
    const cdg::WordPos w = role / net.q + 1;
    for (cdg::LabelId l = 0; l < g.num_labels(); ++l) {
      if (!g.label_allowed(role % net.q, s.cat_at(w), l)) continue;
      for (cdg::WordPos m = 0; m <= n; ++m)
        if (m != w) net.dom[role].insert(Value{l, m});
    }
  }

  // §1.3, unary: a value violating any unary constraint is removed.
  for (const cdg::Constraint& c : g.unary_constraints())
    for (int role = 0; role < R; ++role)
      std::erase_if(net.dom[role], [&](const Value& v) {
        return !net.unary_ok(c, Node{role, v});
      });

  // Arcs over the survivors: every pair of values in distinct roles.
  for (int a = 0; a < R; ++a)
    for (int b = a + 1; b < R; ++b)
      for (const Value& va : net.dom[a])
        for (const Value& vb : net.dom[b])
          net.pairs.insert(Pair{Node{a, va}, Node{b, vb}});

  // §1.3, binary: a pair violating a constraint in either assignment
  // leaves the pair set.
  for (const cdg::Constraint& c : g.binary_constraints())
    std::erase_if(net.pairs, [&](const Pair& p) {
      return !net.binary_ok(c, p.first, p.second);
    });

  // §1.4, filtering: drop every unsupported value and its pairs, until a
  // pass drops nothing.
  for (bool changed = true; changed;) {
    std::vector<Node> victims;
    for (int role = 0; role < R; ++role)
      for (const Value& v : net.dom[role])
        if (!net.supported(Node{role, v})) victims.push_back(Node{role, v});
    changed = !victims.empty();
    for (const Node& a : victims) net.dom[a.role].erase(a.v);
    std::erase_if(net.pairs, [&](const Pair& p) {
      return !net.dom[p.first.role].count(p.first.v) ||
             !net.dom[p.second.role].count(p.second.v);
    });
  }
  return net.dom;
}

}  // namespace parsec::oracle
