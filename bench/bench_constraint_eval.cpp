// Implementation timer: the tree-walking constraint interpreter that
// every engine runs, per unary and per binary evaluation, plus the
// sequential parse that calls it through the vectorized (mask +
// residual) path.  Each evaluation is O(1), the property the paper's
// complexity analysis needs; this bench measures the constant.
// bench_ablation_masks times the masked path against the plain one.
//
// Usage: bench_constraint_eval [benchmark flags...]
#include <benchmark/benchmark.h>

#include <vector>

#include "cdg/constraint_eval.h"
#include "cdg/parser.h"
#include "grammars/english_grammar.h"
#include "grammars/sentence_gen.h"

namespace {

using namespace parsec;

struct Fixture {
  Fixture() : bundle(grammars::make_english_grammar()) {
    grammars::SentenceGenerator gen(bundle, 99);
    sentence = gen.generate_sentence(12);
    // A spread of bindings over the sentence.
    for (int pos = 1; pos <= sentence.size(); ++pos)
      for (int lab = 0; lab < bundle.grammar.num_labels(); ++lab)
        bindings.push_back(cdg::Binding{
            cdg::RoleValue{lab, (pos % sentence.size()) + 1 == pos
                                    ? cdg::kNil
                                    : (pos % sentence.size()) + 1},
            lab % 2, pos});
  }
  grammars::CdgBundle bundle;
  cdg::Sentence sentence;
  std::vector<cdg::Binding> bindings;
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void BM_InterpretUnary(benchmark::State& state) {
  auto& f = fixture();
  const auto& unary = f.bundle.grammar.unary_constraints();
  cdg::EvalContext ctx;
  ctx.sentence = &f.sentence;
  std::size_t i = 0;
  for (auto _ : state) {
    ctx.x = f.bindings[i % f.bindings.size()];
    for (const auto& c : unary)
      benchmark::DoNotOptimize(cdg::eval_constraint(c, ctx));
    ++i;
  }
  state.SetItemsProcessed(state.iterations() * unary.size());
}

void BM_InterpretBinary(benchmark::State& state) {
  auto& f = fixture();
  const auto& binary = f.bundle.grammar.binary_constraints();
  cdg::EvalContext ctx;
  ctx.sentence = &f.sentence;
  std::size_t i = 0;
  for (auto _ : state) {
    ctx.x = f.bindings[i % f.bindings.size()];
    ctx.y = f.bindings[(i + 7) % f.bindings.size()];
    for (const auto& c : binary)
      benchmark::DoNotOptimize(cdg::eval_constraint(c, ctx));
    ++i;
  }
  state.SetItemsProcessed(state.iterations() * binary.size());
}

void BM_FullParseSequential(benchmark::State& state) {
  auto& f = fixture();
  cdg::SequentialParser parser(f.bundle.grammar);
  grammars::SentenceGenerator gen(f.bundle, 5);
  cdg::Sentence s = gen.generate_sentence(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    cdg::Network net = parser.make_network(s);
    auto r = parser.parse(net);
    benchmark::DoNotOptimize(r.accepted);
  }
}

}  // namespace

BENCHMARK(BM_InterpretUnary);
BENCHMARK(BM_InterpretBinary);
BENCHMARK(BM_FullParseSequential)->Arg(4)->Arg(8)->Arg(12);

BENCHMARK_MAIN();
