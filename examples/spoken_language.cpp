// Contextual constraint sets (paper §1.5): "We are currently developing
// a core set of constraints (i.e., they apply in all situations), which
// are the first constraints to propagate, followed by other
// contextually-determined constraint sets."
//
// This demo parses with the English grammar in stages — core unary
// constraints, then the relational (binary) set, then a stricter
// "careful speech" context (projectivity) — showing how each stage
// shrinks the CN without ever reparsing, the property the paper wants
// for spoken-language understanding.
#include <iostream>

#include "cdg/constraint_parser.h"
#include "cdg/extract.h"
#include "cdg/parser.h"
#include "grammars/english_grammar.h"

int main() {
  using namespace parsec;

  grammars::CdgBundle bundle = grammars::make_english_grammar();
  const std::string text =
      "the old professor watches the quick student in the dark garden";
  cdg::Sentence s = bundle.tag(text);
  cdg::SequentialParser parser(bundle.grammar);
  cdg::Network net = parser.make_network(s);

  std::cout << "utterance: " << text << "\n\n";
  auto report = [&](const char* stage) {
    std::size_t multi = 0;
    for (int role = 0; role < net.num_roles(); ++role)
      if (net.domain(role).count() > 1) ++multi;
    std::cout << stage << ": " << net.total_alive()
              << " role values alive, " << multi << " ambiguous roles, "
              << cdg::count_parses(net, 1000) << " parses stored\n";
  };

  report("initial CN             ");
  parser.run_unary(net);
  report("after core (unary) set ");
  parser.run_binary(net);
  net.filter();
  report("after relational set   ");

  // Context: careful read speech -> projective structure expected.
  cdg::Constraint proj = cdg::parse_constraint(
      bundle.grammar, grammars::kProjectivityConstraint);
  net.apply_binary(proj);
  net.filter();
  report("after 'careful speech' ");

  if (!net.all_roles_nonempty()) return 1;
  auto parses = cdg::extract_parses(net, 5);
  std::cout << "\nremaining analyses:\n";
  for (const auto& p : parses)
    std::cout << cdg::render_solution(net, p) << "\n";
  return parses.empty() ? 1 : 0;
}
