// Ablation: the vectorized constraint-evaluation layer, decomposed.
//
//   plain        one constraint evaluation per (pair, assignment) — the
//                pre-vectorization evaluation path (use_masks = false);
//   masked       hoisted-predicate truth masks decide pairs as bitwise
//                row kernels, the whole constraint decides the
//                mask-undecided pairs (the residual) —
//                the default path, bit-identical to plain (ASSERTED:
//                this binary exits nonzero on any hash divergence);
//   mask-only    masks without the residual — undecided pairs are
//                left alive, so the fixpoint under-approximates plain.
//                Expected to diverge; reported, not asserted.  Its time
//                isolates the pure word-kernel cost, and the gap to
//                `masked` prices the residual evaluations.
//
// Also reports the fraction of surviving pairs the masks decide
// without an evaluation (the number that makes the ≥2x fixpoint
// speedup mechanical).  The single-sentence sweeps run the scalar mask
// expression on pair-matrix rows, so the SIMD dispatch tier does not
// apply here; bench_throughput prices the tiers on the SoA batch.
// Writes BENCH_ablation_masks.json; the CI perf-smoke job uploads it as
// an artifact.  Its `binary_vm_evals` and `decided_without_vm` keys
// keep their names from when a bytecode VM evaluated the residual.
//
// Usage: bench_ablation_masks [--json PATH]
#include <fstream>
#include <iostream>
#include <string>

#include "bench_common.h"
#include "cdg/parser.h"
#include "parsec/backend.h"
#include "util/table.h"

namespace {

using namespace parsec;

struct ModeResult {
  std::string name;
  double ms_per_sentence = 0.0;
  std::uint64_t hash = 0;
  std::uint64_t accepted = 0;
  cdg::NetworkCounters counters;
};

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_ablation_masks.json";
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--json" && i + 1 < argc)
      json_path = argv[++i];

  auto bundle = grammars::make_english_grammar();
  grammars::SentenceGenerator gen(bundle, bench::kSeed);
  std::vector<cdg::Sentence> workload;
  for (int i = 0; i < 48; ++i)
    workload.push_back(gen.generate_sentence(4 + i % 9));  // n = 4..12

  // One parse of `s` in the given mode; returns the domains hash.
  auto parse_one = [&](const cdg::SequentialParser& parser,
                       const cdg::Sentence& s, bool apply_residual,
                       cdg::NetworkCounters& total,
                       std::uint64_t& accepted) -> std::uint64_t {
    cdg::Network net = parser.make_network(s);
    if (apply_residual) {
      auto r = parser.parse(net);
      accepted += r.accepted;
      total += r.counters;
    } else {
      // The mask-only pipeline: same schedule as SequentialParser::parse
      // but every binary sweep skips the residual.
      parser.run_unary(net);
      const auto& binary = parser.compiled_binary();
      for (std::size_t i = 0; i < binary.size(); ++i) {
        net.apply_binary(binary[i], i, /*apply_residual=*/false);
        net.consistency_step();
      }
      net.filter();
      accepted += net.all_roles_nonempty();
      total += net.counters();
    }
    return engine::hash_domains(net);
  };

  auto run_mode = [&](const std::string& name, bool use_masks,
                      bool apply_residual) {
    cdg::ParseOptions opt;
    opt.use_masks = use_masks;
    cdg::SequentialParser parser(bundle.grammar, opt);
    ModeResult m;
    m.name = name;
    // Warm pass (mask builds, page faults), then the timed pass.
    {
      cdg::NetworkCounters scratch;
      std::uint64_t acc = 0;
      for (const auto& s : workload)
        parse_one(parser, s, apply_residual, scratch, acc);
    }
    const double secs = bench::time_host([&] {
      for (const auto& s : workload)
        m.hash ^= parse_one(parser, s, apply_residual, m.counters, m.accepted);
    });
    m.ms_per_sentence = secs * 1e3 / static_cast<double>(workload.size());
    return m;
  };

  const ModeResult plain = run_mode("plain", false, true);
  const ModeResult masked = run_mode("masked", true, true);
  const ModeResult mask_only = run_mode("mask-only", true, false);

  const double decided =
      static_cast<double>(masked.counters.masked_binary_pairs) /
      static_cast<double>(masked.counters.masked_binary_pairs +
                          masked.counters.binary_evals / 2);

  std::cout
      << "==============================================================\n"
      << "Ablation: truth-mask kernels x residual evaluation\n"
      << workload.size() << " English sentences, n = 4..12\n"
      << "==============================================================\n\n";

  util::Table t({"mode", "ms/sentence", "speedup vs plain", "binary evals",
                 "masked pairs", "same fixpoint"});
  for (const ModeResult* m : {&plain, &masked, &mask_only}) {
    t.add_row({m->name, bench::fmt(m->ms_per_sentence, "%.4f"),
               bench::fmt(plain.ms_per_sentence / m->ms_per_sentence, "%.2f"),
               std::to_string(m->counters.binary_evals),
               std::to_string(m->counters.masked_binary_pairs),
               m->hash == plain.hash ? "yes" : "no"});
  }
  t.print(std::cout);

  std::cout << "\npairs decided without an evaluation: "
            << bench::fmt(decided * 100.0, "%.2f") << "%\n"
            << "mask-only fixpoint "
            << (mask_only.hash == plain.hash
                    ? "matches plain (no residual terms fired)"
                    : "diverges from plain, as expected (residual terms "
                      "matter)")
            << "\n";

  std::ofstream json(json_path);
  json << "{\n  \"workload\": \"english n=4..12 x" << workload.size()
       << ", serial\",\n  \"modes\": [\n";
  const ModeResult* modes[] = {&plain, &masked, &mask_only};
  for (std::size_t i = 0; i < 3; ++i) {
    const ModeResult& m = *modes[i];
    json << "    {\"mode\": \"" << m.name
         << "\", \"ms_per_sentence\": " << bench::fmt(m.ms_per_sentence, "%.4f")
         << ", \"speedup_vs_plain\": "
         << bench::fmt(plain.ms_per_sentence / m.ms_per_sentence, "%.3f")
         << ", \"binary_vm_evals\": " << m.counters.binary_evals
         << ", \"masked_binary_pairs\": " << m.counters.masked_binary_pairs
         << ", \"mask_build_evals\": " << m.counters.mask_build_evals
         << ", \"accepted\": " << m.accepted
         << ", \"fixpoint_matches_plain\": "
         << (m.hash == plain.hash ? "true" : "false") << "}"
         << (i + 1 < 3 ? "," : "") << "\n";
  }
  json << "  ],\n  \"decided_without_vm\": " << bench::fmt(decided, "%.4f")
       << ",\n  \"masked_bit_identical\": "
       << (masked.hash == plain.hash ? "true" : "false") << "\n}\n";
  std::cout << "report: " << json_path << "\n";

  if (masked.hash != plain.hash) {
    std::cout << "verdict: MASKED PATH DIVERGED FROM PLAIN\n";
    return 1;
  }
  std::cout << "verdict: masked path bit-identical to plain\n";
  return 0;
}
