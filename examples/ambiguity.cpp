// Ambiguity handling (paper §1.4-1.5): constraint networks compactly
// store several parses; applying further constraints refines the
// analysis without backtracking.
//
// The classic prepositional-phrase attachment: "the student sees the
// professor with the telescope".  The base English grammar keeps both
// readings; a contextual constraint set (here: "instrument reading —
// the PP modifies the verb") settles it.
#include <iostream>

#include "cdg/constraint_eval.h"
#include "cdg/constraint_parser.h"
#include "cdg/extract.h"
#include "cdg/parser.h"
#include "cdg/printer.h"
#include "grammars/english_grammar.h"

int main() {
  using namespace parsec;

  grammars::CdgBundle bundle = grammars::make_english_grammar();
  const std::string text = "the student sees the professor with the telescope";
  cdg::Sentence s = bundle.tag(text);

  cdg::SequentialParser parser(bundle.grammar);
  cdg::Network net = parser.make_network(s);
  parser.parse(net);

  std::cout << "sentence: " << text << "\n\n";
  auto parses = cdg::extract_parses(net, 10);
  std::cout << "the CN stores " << parses.size()
            << " parses simultaneously:\n\n";
  for (std::size_t i = 0; i < parses.size(); ++i) {
    std::cout << "--- parse " << (i + 1) << " ---\n"
              << cdg::render_solution(net, parses[i]) << "\n";
  }

  // Ambiguity is easy to spot in CDG (§1.4): a role with several role
  // values.
  for (int role = 0; role < net.num_roles(); ++role) {
    if (net.domain(role).count() > 1) {
      std::cout << "ambiguous role: word "
                << net.sentence().word_at(net.word_of_role(role)) << " ("
                << bundle.grammar.role_name(net.role_id_of(role))
                << ") = " << cdg::render_role(net, role) << "\n";
    }
  }

  // Contextual refinement: in an instrument-reading context, the PP
  // attaches to the verb.  CDG lets us apply the extra constraint to
  // the already-propagated network (no reparse, no backtracking).
  cdg::Constraint instrument = cdg::parse_constraint(bundle.grammar, R"(
      (if (and (eq (lab x) PREP) (not (eq (mod x) nil)))
          (eq (cat (word (mod x))) verb)))");
  net.apply_unary(instrument);
  net.filter();

  std::cout << "\nafter the contextual 'instrument' constraint:\n";
  auto refined = cdg::extract_parses(net, 10);
  for (const auto& p : refined)
    std::cout << cdg::render_solution(net, p) << "\n";
  std::cout << "parses remaining: " << refined.size() << "\n";
  return refined.size() == 1 ? 0 : 1;
}
