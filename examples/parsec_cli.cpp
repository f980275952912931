// parsec_cli — command-line CDG parser.
//
//   parsec_cli [--grammar FILE | --builtin toy|english|anbncn]
//              [--engine seq|pram|maspar] [--show-network]
//              [--all-parses N] [sentence... | reads lines from stdin]
//
// Exit status: 0 if every input sentence is accepted, 1 otherwise.
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cdg/diagnose.h"
#include "cdg/extract.h"
#include "cdg/parser.h"
#include "cdg/printer.h"
#include "grammars/anbncn_grammar.h"
#include "grammars/english_grammar.h"
#include "grammars/grammar_io.h"
#include "grammars/toy_grammar.h"
#include "parsec/maspar_parser.h"
#include "parsec/pram_parser.h"

namespace {

using namespace parsec;

int usage() {
  std::cerr
      << "usage: parsec_cli [--grammar FILE | --builtin toy|english|anbncn]\n"
         "                  [--engine seq|pram|maspar] [--show-network]\n"
         "                  [--dot] [--all-parses N] [sentence words...]\n"
         "With no sentence words, parses one sentence per stdin line.\n";
  return 2;
}

struct Options {
  std::string grammar_file;
  std::string builtin = "english";
  std::string engine = "seq";
  bool show_network = false;
  bool dot = false;
  std::size_t max_parses = 1;
  std::vector<std::string> words;
};

bool parse_sentence(const Options& opt, const grammars::CdgBundle& bundle,
                    const std::vector<std::string>& words) {
  for (const auto& w : words) {
    if (!bundle.lexicon.contains(w)) {
      std::cout << "REJECT (unknown word: " << w << ")\n";
      return false;
    }
  }
  cdg::Sentence s = bundle.lexicon.tag(words);
  cdg::SequentialParser seq(bundle.grammar);
  cdg::Network net = seq.make_network(s);

  bool accepted = false;
  if (opt.engine == "seq") {
    accepted = seq.parse(net).accepted;
  } else if (opt.engine == "pram") {
    engine::PramParser p(bundle.grammar);
    auto r = p.parse(net);
    accepted = r.accepted;
    std::cout << "[pram: " << r.stats.time_steps << " steps, peak "
              << r.stats.max_processors << " processors]\n";
  } else if (opt.engine == "maspar") {
    engine::MasparOptions mopt;
    mopt.filter_iterations = -1;
    engine::MasparParser p(bundle.grammar, mopt);
    std::unique_ptr<engine::MasparParse> parse;
    auto r = p.parse(s, parse);
    accepted = r.accepted;
    std::cout << "[maspar: " << r.vpes << " virtual PEs, factor "
              << r.virt_factor << ", " << r.simulated_seconds
              << " simulated s]\n";
    // Mirror the MasPar result into the network for display/extraction.
    seq.parse(net);
  }

  if (opt.show_network) std::cout << cdg::render_domains(net);
  if (!accepted || !net.all_roles_nonempty()) {
    cdg::Diagnosis d = cdg::diagnose(seq, s);
    std::cout << "REJECT — "
              << cdg::render_diagnosis(bundle.grammar, s, d) << "\n";
    return false;
  }
  auto parses = cdg::extract_parses(net, opt.max_parses);
  if (parses.empty()) {
    std::cout << "REJECT (no globally consistent assignment)\n";
    return false;
  }
  std::cout << "ACCEPT (" << parses.size()
            << (parses.size() == opt.max_parses ? "+" : "") << " parse"
            << (parses.size() == 1 ? "" : "s") << ")\n";
  for (const auto& p : parses) std::cout << cdg::render_solution(net, p);
  if (opt.dot) std::cout << cdg::render_dot(net, parses.front());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (arg == "--grammar") {
      const char* v = next();
      if (!v) return usage();
      opt.grammar_file = v;
    } else if (arg == "--builtin") {
      const char* v = next();
      if (!v) return usage();
      opt.builtin = v;
    } else if (arg == "--engine") {
      const char* v = next();
      if (!v) return usage();
      opt.engine = v;
    } else if (arg == "--show-network") {
      opt.show_network = true;
    } else if (arg == "--dot") {
      opt.dot = true;
    } else if (arg == "--all-parses") {
      const char* v = next();
      if (!v) return usage();
      opt.max_parses = std::stoul(v);
    } else if (arg == "--help" || arg == "-h") {
      return usage();
    } else {
      opt.words.push_back(arg);
    }
  }
  if (opt.engine != "seq" && opt.engine != "pram" && opt.engine != "maspar")
    return usage();

  grammars::CdgBundle bundle;
  try {
    if (!opt.grammar_file.empty())
      bundle = grammars::load_cdg_bundle_file(opt.grammar_file);
    else if (opt.builtin == "toy")
      bundle = grammars::make_toy_grammar();
    else if (opt.builtin == "english")
      bundle = grammars::make_english_grammar();
    else if (opt.builtin == "anbncn")
      bundle = grammars::make_anbncn_grammar();
    else
      return usage();
  } catch (const std::exception& e) {
    std::cerr << "grammar error: " << e.what() << "\n";
    return 2;
  }

  bool all_ok = true;
  if (!opt.words.empty()) {
    all_ok = parse_sentence(opt, bundle, opt.words);
  } else {
    std::string line;
    while (std::getline(std::cin, line)) {
      if (line.empty()) continue;
      std::istringstream is(line);
      std::vector<std::string> words;
      std::string w;
      while (is >> w) words.push_back(w);
      std::cout << "> " << line << "\n";
      all_ok = parse_sentence(opt, bundle, words) && all_ok;
    }
  }
  return all_ok ? 0 : 1;
}
