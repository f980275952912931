// Ablation: MasPar design decision 1 — "we construct the arc matrices
// before the propagation of the unary constraints".
//
// On the MasPar this simplifies the kernels (no separate domain pass);
// the cost is initializing matrices over the full pre-unary domains.
// The host engines build their (compact) arcs after unary propagation,
// over the smaller surviving domains.  Both must reach identical
// fixpoints; this bench quantifies the work difference.  Each side's
// time covers network construction plus the whole parse, so the
// prebuilt side pays for its arc fill inside its timer too.
#include <iostream>
#include <optional>

#include "bench_common.h"
#include "cdg/parser.h"
#include "util/table.h"

int main() {
  using namespace parsec;
  auto bundle = grammars::make_english_grammar();

  cdg::ParseOptions pre_opt;
  pre_opt.prebuild_arcs = true;
  cdg::ParseOptions lazy_opt;
  lazy_opt.prebuild_arcs = false;
  cdg::SequentialParser pre(bundle.grammar, pre_opt);
  cdg::SequentialParser lazy(bundle.grammar, lazy_opt);

  std::cout
      << "==============================================================\n"
      << "Ablation (design decision 1): arc matrices before vs after\n"
      << "unary constraint propagation\n"
      << "==============================================================\n\n";

  util::Table t({"n", "prebuilt arc bits", "lazy arc bits", "bits ratio",
                 "prebuilt host s", "lazy host s", "fixpoints equal"});
  grammars::SentenceGenerator gen(bundle, bench::kSeed);
  for (int n = 4; n <= 16; n += 4) {
    cdg::Sentence s = gen.generate_sentence(n);

    // Arc bits each side starts its binary phase with (untimed).
    const double pre_bits =
        static_cast<double>(pre.make_network(s).arc_ones());
    double lazy_bits = 0;
    {
      cdg::Network probe = lazy.make_network(s);
      lazy.run_unary(probe);
      probe.build_arcs();
      lazy_bits = static_cast<double>(probe.arc_ones());
    }

    std::optional<cdg::Network> a, b;
    const double t_pre = bench::time_host([&] {
      a.emplace(pre.make_network(s));
      pre.parse(*a);
    });
    const double t_lazy = bench::time_host([&] {
      b.emplace(lazy.make_network(s));
      lazy.parse(*b);
    });

    bool equal = true;
    for (int r = 0; r < a->num_roles(); ++r)
      if (!(a->domain(r) == b->domain(r))) equal = false;

    t.add_row({std::to_string(n), util::format_value(pre_bits),
               util::format_value(lazy_bits),
               bench::fmt(pre_bits / lazy_bits, "%.2f"),
               bench::fmt(t_pre, "%.4f"), bench::fmt(t_lazy, "%.4f"),
               equal ? "yes" : "NO"});
    if (!equal) return 1;
  }
  t.print(std::cout);
  std::cout
      << "\nReading: prebuilding initializes orders of magnitude more\n"
         "matrix bits (the full pre-unary domains) and then sweeps and\n"
         "zeroes them through unary propagation — work the MasPar\n"
         "absorbs for free in one parallel init broadcast, but which the\n"
         "host engines skip by building arcs after unary pruning.\n"
         "Decision 1 trades redundant parallel init for simpler kernels;\n"
         "the fixpoint is unchanged.\n";
  return 0;
}
