// Randomized cross-backend fuzz over the unified run_backend entry:
// every backend (serial, P-RAM, MasPar, mesh) and AC-4
// filtering must produce the identical domains_hash fingerprint for the
// same sentence, and pooled-arena reuse (NetworkScratch) must not
// change a single bit.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cdg/ac4.h"
#include "grammars/english_grammar.h"
#include "grammars/sentence_gen.h"
#include "grammars/toy_grammar.h"
#include "parsec/backend.h"
#include "util/rng.h"

namespace {

using namespace parsec;

std::vector<std::string> random_words(util::Rng& rng, int n) {
  static const std::vector<std::string> pool{
      "The", "a", "program", "dog", "compiler", "runs", "halts", "crashes"};
  std::vector<std::string> words;
  for (int i = 0; i < n; ++i) words.push_back(rng.pick(pool));
  return words;
}

class BackendFuzz : public ::testing::TestWithParam<int> {};

/// Propagation without per-constraint maintenance, then AC-4 support
/// counting to the fixpoint, on a pooled network.
std::uint64_t ac4_hash(const cdg::SequentialParser& p,
                       engine::NetworkScratch& scratch,
                       const cdg::Sentence& s) {
  cdg::Network& net = scratch.acquire(p.grammar(), s);
  for (std::size_t i = 0; i < p.compiled_unary().size(); ++i)
    p.step_unary(net, i);
  for (std::size_t i = 0; i < p.compiled_binary().size(); ++i)
    p.step_binary(net, i);
  cdg::filter_ac4(net);
  return engine::hash_domains(net);
}

// 5 seeds x 10 sentences = 50 random word strings (grammatical or not).
TEST_P(BackendFuzz, AllBackendsHashIdenticalOnToySentences) {
  auto bundle = grammars::make_toy_grammar();
  engine::EngineSet engines(bundle.grammar);
  engine::NetworkScratch scratch;  // shared pool: exercises arena reuse

  util::Rng rng(910 + GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 1 + static_cast<int>(rng.next_below(7));
    cdg::Sentence s = bundle.lexicon.tag(random_words(rng, n));
    std::string label;
    for (const auto& w : s.words) label += w + " ";

    const engine::BackendRun ref =
        engine::run_backend(engines, engine::Backend::Serial, s);
    for (auto b : engine::kAllBackends) {
      engine::BackendRun run = engine::run_backend(engines, b, s, &scratch);
      EXPECT_EQ(run.domains_hash, ref.domains_hash)
          << label << "backend " << engine::to_string(b);
      EXPECT_EQ(run.accepted, ref.accepted)
          << label << "backend " << engine::to_string(b);
      EXPECT_EQ(run.alive_role_values, ref.alive_role_values)
          << label << "backend " << engine::to_string(b);
    }
    // AC-4 filtering reaches the same fixpoint (confluence).
    EXPECT_EQ(ac4_hash(engines.serial(), scratch, s), ref.domains_hash)
        << label << "ac4";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendFuzz, ::testing::Range(0, 5));

TEST(BackendFuzz, EnglishSentencesHashIdenticalAcrossBackends) {
  auto bundle = grammars::make_english_grammar();
  grammars::SentenceGenerator gen(bundle, 20260806);
  engine::EngineSet engines(bundle.grammar);
  engine::NetworkScratch scratch;
  for (int n : {3, 5, 7, 9, 11}) {
    cdg::Sentence s = gen.generate_sentence(n);
    const engine::BackendRun ref =
        engine::run_backend(engines, engine::Backend::Serial, s);
    for (auto b : engine::kAllBackends)
      EXPECT_EQ(engine::run_backend(engines, b, s, &scratch).domains_hash,
                ref.domains_hash)
          << "n=" << n << " backend " << engine::to_string(b);
  }
}

// Pooled arenas: parsing the same sentence through a warm pool must be
// bit-identical to a cold parse, steady state must not reallocate, and
// the reused network must still satisfy every structural invariant.
TEST(BackendFuzz, PooledArenaReuseIsBitIdenticalAndAllocationFree) {
  auto bundle = grammars::make_english_grammar();
  grammars::SentenceGenerator gen(bundle, 424242);
  engine::EngineSet engines(bundle.grammar);
  engine::NetworkScratch scratch;

  std::vector<cdg::Sentence> ws;
  std::vector<std::uint64_t> cold;
  for (int i = 0; i < 8; ++i) {
    ws.push_back(gen.generate_sentence(4 + i % 3));  // repeating lengths
    cold.push_back(
        engine::run_backend(engines, engine::Backend::Serial, ws.back())
            .domains_hash);
  }

  // Warm the pool, then go around it twice more.
  for (int round = 0; round < 3; ++round)
    for (std::size_t i = 0; i < ws.size(); ++i)
      EXPECT_EQ(engine::run_backend(engines, engine::Backend::Serial, ws[i],
                                    &scratch)
                    .domains_hash,
                cold[i])
          << "round " << round << " sentence " << i;

  // 3 distinct lengths -> 3 pooled shapes, two allocations each (the
  // shape region at construction, the pair region at the first
  // compact); every later request reused an arena.
  EXPECT_EQ(scratch.pooled_shapes(), 3u);
  EXPECT_EQ(scratch.arena_allocations(), 6u);
  EXPECT_EQ(scratch.reuses(), 3 * ws.size() - 3);
  EXPECT_EQ(scratch.arena_reinits(), scratch.reuses());
  EXPECT_GT(scratch.arena_bytes(), 0u);

  // The pooled networks end each request at a structurally consistent
  // fixpoint: run one more request and inspect the network directly.
  cdg::NetworkOptions nopt;
  cdg::Network& net = scratch.acquire(bundle.grammar, ws[0], nopt);
  engines.serial().parse(net);
  net.filter();
  EXPECT_TRUE(net.check_invariants());
}

// Masked vs plain evaluation differential over a 60-sentence fuzz
// corpus: the vectorized path (truth masks + residual, the default)
// and the per-pair path (use_masks = false) must reach bit-identical
// fixpoints on every sentence — the CI perf-smoke gate asserts the same
// property via bench_ablation_masks.
TEST(BackendFuzz, MaskedAndPlainSerialBitIdenticalOnFuzzCorpus) {
  auto toy = grammars::make_toy_grammar();
  auto english = grammars::make_english_grammar();
  engine::EngineSetOptions plain_opt;
  plain_opt.serial.use_masks = false;

  struct Case {
    const grammars::CdgBundle* bundle;
    cdg::Sentence s;
  };
  std::vector<Case> corpus;
  util::Rng rng(20260806);
  for (int i = 0; i < 30; ++i) {
    const int n = 1 + static_cast<int>(rng.next_below(7));
    corpus.push_back({&toy, toy.lexicon.tag(random_words(rng, n))});
  }
  grammars::SentenceGenerator gen(english, 31337);
  for (int i = 0; i < 30; ++i)
    corpus.push_back({&english, gen.generate_sentence(3 + i % 9)});

  engine::EngineSet toy_masked(toy.grammar);
  engine::EngineSet toy_plain(toy.grammar, plain_opt);
  engine::EngineSet eng_masked(english.grammar);
  engine::EngineSet eng_plain(english.grammar, plain_opt);
  engine::NetworkScratch scratch;

  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const bool is_toy = corpus[i].bundle == &toy;
    const engine::BackendRun masked =
        engine::run_backend(is_toy ? toy_masked : eng_masked,
                            engine::Backend::Serial, corpus[i].s, &scratch);
    const engine::BackendRun plain =
        engine::run_backend(is_toy ? toy_plain : eng_plain,
                            engine::Backend::Serial, corpus[i].s, &scratch);
    EXPECT_EQ(masked.domains_hash, plain.domains_hash) << "sentence " << i;
    EXPECT_EQ(masked.accepted, plain.accepted) << "sentence " << i;
    EXPECT_EQ(masked.alive_role_values, plain.alive_role_values)
        << "sentence " << i;
  }
}

// AC-4 leaves its support counters equal to the live supports in the
// pair matrix at the fixpoint, and the network structurally sound.
TEST(BackendFuzz, Ac4CountersMatchMatricesAtFixpoint) {
  auto bundle = grammars::make_toy_grammar();
  cdg::SequentialParser parser(bundle.grammar);
  cdg::Ac4Scratch scratch;  // reused across sentences
  for (const char* text : {"The program runs", "a dog halts",
                           "The compiler crashes", "dog runs The"}) {
    cdg::Sentence s = bundle.tag(text);
    cdg::Network net = parser.make_network(s);
    parser.run_unary(net);
    parser.run_binary(net);
    cdg::filter_ac4(net, scratch);
    EXPECT_TRUE(scratch.counts_match(net)) << text;
    EXPECT_TRUE(net.check_invariants()) << text;
  }
}

}  // namespace
