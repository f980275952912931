// Ablation: sweep-based filtering (the paper's §1.4 algorithm, O(n^4)
// per sweep) vs AC-4-style support counting (O(n^4) total) — the
// classic serial trade the paper's bounded-iteration design sidesteps
// on the parallel machine.
#include <iostream>

#include "bench_common.h"
#include "cdg/ac4.h"
#include "cdg/parser.h"
#include "util/table.h"

int main() {
  using namespace parsec;
  auto bundle = grammars::make_english_grammar();
  cdg::ParseOptions deferred;
  deferred.consistency_after_each_binary = false;
  deferred.filter_sweeps = 0;
  cdg::SequentialParser parser(bundle.grammar, deferred);

  std::cout
      << "==============================================================\n"
      << "Ablation: sweep filtering vs AC-4 support counting\n"
      << "(constraints propagated with maintenance deferred, so all\n"
      << "support-based elimination happens in the filtering phase)\n"
      << "==============================================================\n\n";

  util::Table t({"n", "sweeps", "sweep filter us", "ac4 filter us",
                 "ac4 decrements", "eliminations", "equal"});
  grammars::SentenceGenerator gen(bundle, bench::kSeed);
  for (int n = 6; n <= 22; n += 4) {
    cdg::Sentence s = gen.generate_sentence(n);

    cdg::Network a = parser.make_network(s);
    parser.parse(a);
    int sweeps = 0;
    const double t_sweep = bench::time_host([&] { sweeps = a.filter(); });

    cdg::Network b = parser.make_network(s);
    parser.parse(b);
    cdg::Ac4Stats stats;
    const double t_ac4 = bench::time_host([&] { stats = cdg::filter_ac4(b); });

    bool equal = true;
    for (int r = 0; r < a.num_roles(); ++r)
      if (!(a.domain(r) == b.domain(r))) equal = false;

    t.add_row({std::to_string(n), std::to_string(sweeps),
               bench::fmt(t_sweep * 1e6, "%.1f"),
               bench::fmt(t_ac4 * 1e6, "%.1f"),
               util::format_value(static_cast<double>(stats.counter_decrements)),
               util::format_value(static_cast<double>(stats.eliminations)),
               equal ? "yes" : "NO"});
    if (!equal) return 1;
  }
  t.print(std::cout);
  std::cout
      << "\nReading: identical fixpoints; AC-4 pays an O(n^4) counter\n"
         "build once, while each sweep rescans matrices — with the\n"
         "paper's observation that few sweeps are needed, the sweep\n"
         "approach stays competitive serially and is what parallelizes\n"
         "trivially on the SIMD array.\n";
  return 0;
}
