// Golden fixpoints: each sentence's domains_hash, the serial engine's
// work counters and the P-RAM and mesh step counts, pinned to a table.
// The hash and counters were captured from the dense pre-unary arc
// layout.  Every host engine runs on the same cdg/kernels layer, so the
// cross-engine equivalence tests cannot catch a kernel bug they all
// share; this table can.  It covers 64 seeded English sentences (n =
// 4..24) and 16 random toy-grammar word strings, grammatical or not.
//
// The hash is asserted on the serial, P-RAM and mesh backends, on AC-4
// filtering and with prebuilt arcs; the counters (the paper-facing
// effective evals plus masked pairs, eliminations and arc zeroings) on
// the serial backend; the step columns (P-RAM time steps, peak
// processors and total work, mesh time and reduction steps) on the
// P-RAM and mesh backends.
//
// Regenerate only when a change is meant to move these numbers, by
// running engine_test with --gtest_also_run_disabled_tests and
// --gtest_filter=GoldenFixpoint.DISABLED_PrintTable.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
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

struct Steps {
  std::uint64_t pram_time_steps;
  std::uint64_t pram_max_processors;
  std::uint64_t pram_total_work;
  std::uint64_t mesh_time_steps;
  std::uint64_t mesh_reduction_steps;
};

struct Golden {
  std::uint64_t hash;
  std::uint64_t effective_unary_evals;
  std::uint64_t effective_binary_evals;
  std::uint64_t masked_binary_pairs;
  std::uint64_t eliminations;
  std::uint64_t arc_zeroings;
  Steps steps;
};

// clang-format off
const Golden kGolden[] = {
    {0xdb5c4d4acfca849dull, 300, 560, 276, 32, 0, {41, 4620, 21241, 83697, 12}},
    {0xa878d68ad20569cfull, 360, 900, 446, 50, 0, {41, 9072, 46915, 123428, 16}},
    {0xe53514111d05b959ull, 565, 1786, 879, 83, 2, {44, 31416, 129226, 196464, 30}},
    {0xcc2dc8196615e50dull, 789, 2366, 1169, 111, 2, {44, 49920, 219416, 259495, 36}},
    {0xdd9d7e3ece4f6479ull, 957, 3026, 1499, 143, 2, {44, 74520, 349480, 331109, 42}},
    {0x08ce8a22c9631553ull, 1411, 5116, 2515, 196, 8, {47, 157080, 670050, 465793, 64}},
    {0x60f1460f24be864dull, 1539, 7566, 3740, 235, 8, {47, 215688, 997237, 566515, 72}},
    {0x5bc4d8ac569d478full, 1565, 6426, 3199, 261, 2, {44, 193536, 1105982, 597818, 60}},
    {0xb65471c3d2852643ull, 2021, 11202, 5558, 329, 8, {47, 373152, 1892845, 797287, 88}},
    {0x926ce7bcceac3cb8ull, 2843, 17082, 8433, 408, 21, {47, 625800, 2698811, 927381, 96}},
    {0xa79fd8f681a5b985ull, 2549, 14812, 7363, 440, 8, {47, 592920, 3248466, 1067254, 104}},
    {0xdde6d99e419a0e0dull, 2150, 8700, 4346, 450, 0, {41, 935424, 2852005, 931779, 56}},
    {0xc10905e2d8af9a05ull, 4616, 45552, 22389, 617, 80, {50, 1422900, 7009611, 1537651, 150}},
    {0x57cd9fcdb9feb12bull, 2676, 11220, 5606, 578, 0, {41, 1596672, 4620391, 1183272, 64}},
    {0x1db3efe079fb74c5ull, 4344, 29234, 14560, 705, 12, {47, 1244880, 8168590, 1724632, 136}},
    {0x61474be67c9ea83aull, 6185, 67954, 33516, 893, 81, {53, 2894880, 14070509, 2362213, 216}},
    {0xd03ef0a2c7df5f6bull, 5383, 41228, 20506, 903, 21, {47, 2289924, 12532824, 2112073, 152}},
    {0xe655e4870cf0976bull, 4574, 27346, 13657, 914, 2, {44, 3247200, 12196179, 2048302, 120}},
    {0x5141730e5b29e99dull, 4849, 27386, 13679, 1004, 2, {44, 3987648, 14439108, 2240860, 126}},
    {0x542f3dee6989d155ull, 5334, 32826, 16397, 1093, 2, {44, 4847040, 17181807, 2442058, 132}},
    {0x1ae7c81ffa45ad6dull, 10171, 170934, 83978, 1461, 223, {56, 7712700, 37793362, 4062066, 322}},
    {0x4f17135555ef8759ull, 258, 560, 276, 32, 0, {41, 4620, 21199, 83697, 12}},
    {0xf3469dccad2081bfull, 429, 1086, 529, 60, 2, {44, 18144, 67924, 142100, 24}},
    {0xe53514111d05b959ull, 565, 1786, 879, 83, 2, {44, 31416, 129226, 196464, 30}},
    {0x10100154b68b6a35ull, 690, 1820, 906, 98, 0, {41, 24960, 160223, 225251, 24}},
    {0x8a432bcc1bd7c975ull, 1103, 4244, 2079, 158, 8, {47, 110160, 451294, 374863, 56}},
    {0xc8b9630b1ac8bb96ull, 1319, 6008, 2961, 194, 8, {47, 157080, 690884, 465793, 64}},
    {0xad5d81a31785d0f5ull, 1229, 5446, 2709, 217, 2, {44, 145464, 786880, 500285, 54}},
    {0xc33a2550db7e7fc8ull, 2099, 11868, 5826, 303, 21, {47, 378000, 1498870, 677012, 80}},
    {0x9246952c235395dbull, 2395, 15458, 7621, 352, 21, {47, 491556, 2062323, 797287, 88}},
    {0x9063b33843d1c7abull, 1869, 9206, 4589, 360, 2, {44, 403200, 2035630, 818803, 72}},
    {0x14cd078ade02ea29ull, 2800, 18534, 9210, 436, 12, {47, 583200, 3347659, 1067254, 104}},
    {0xfd4b285c8981b1cdull, 2565, 12486, 6229, 475, 2, {44, 701568, 3450476, 1074349, 84}},
    {0x4de4686766729659ull, 3153, 20654, 10284, 565, 8, {47, 885360, 5283431, 1376359, 120}},
    {0xa6c92523d110236bull, 3149, 16266, 8119, 606, 2, {44, 1254528, 5493446, 1364440, 96}},
    {0xb23837d3b63189a3ull, 5810, 83388, 40873, 792, 155, {53, 2417940, 12772686, 2129020, 204}},
    {0xa8a24fd81e344ea7ull, 3510, 14060, 7026, 722, 0, {41, 2397600, 7105979, 1464717, 72}},
    {0x2fa98c4d4a912546ull, 6437, 83222, 41150, 974, 81, {53, 3380832, 17256824, 2607481, 228}},
    {0x7819c9f4eebd8601ull, 7286, 119164, 58761, 1044, 155, {53, 3864168, 22001052, 2864866, 240}},
    {0x55a8e7b7654a030full, 5271, 40222, 20068, 1039, 8, {47, 3489192, 16821465, 2538682, 168}},
    {0x812d888d2be229d5ull, 4929, 30606, 15289, 1095, 2, {44, 5132160, 17102510, 2442058, 132}},
    {0x311a6f37b2b65ca9ull, 6391, 45486, 22700, 1231, 8, {47, 4864500, 23029283, 3004428, 184}},
    {0x4f17135555ef8759ull, 258, 560, 276, 32, 0, {41, 4620, 21199, 83697, 12}},
    {0xa878d68ad20569cfull, 360, 900, 446, 50, 0, {41, 9072, 46915, 123428, 16}},
    {0xe53514111d05b959ull, 565, 1786, 879, 83, 2, {44, 31416, 129226, 196464, 30}},
    {0x971f62244c21676dull, 705, 2366, 1169, 111, 2, {44, 49920, 219334, 259495, 36}},
    {0xdd9d7e3ece4f6479ull, 957, 3026, 1499, 143, 2, {44, 74520, 349480, 331109, 42}},
    {0x08ce8a22c9631553ull, 1411, 5116, 2515, 196, 8, {47, 157080, 670050, 465793, 64}},
    {0xa5194acca815314dull, 1655, 7040, 3477, 236, 8, {47, 215688, 984508, 566515, 72}},
    {0x0c70ac2edbf6abffull, 1406, 4620, 2306, 242, 0, {41, 211680, 871795, 518624, 40}},
    {0xa26d3b6d1f55409bull, 2370, 13014, 6450, 327, 12, {47, 365976, 1929828, 797287, 88}},
    {0x517a0a9d1c84937dull, 2654, 14514, 7200, 381, 12, {47, 466200, 2535562, 927381, 96}},
    {0x50b37f8c61b3beadull, 1908, 7560, 3776, 392, 0, {41, 694980, 2188069, 817258, 52}},
    {0x165cfffcdddc34edull, 2849, 18016, 8965, 500, 8, {47, 729408, 4189782, 1216919, 112}},
    {0x5db71f74fe268811ull, 4353, 35908, 17723, 627, 43, {50, 1448196, 6652222, 1537651, 150}},
    {0xd57f21c8234569abull, 3461, 22526, 11220, 635, 8, {47, 1062072, 6538997, 1545608, 128}},
    {0xd394a01e9901c35dull, 3229, 18766, 9369, 677, 2, {44, 1763580, 6812356, 1522438, 102}},
    {0x88e8ac59b41c0ff5ull, 5936, 67882, 33554, 842, 80, {50, 2397600, 12906459, 2137839, 180}},
    {0x6c03768b78851a39ull, 4858, 37274, 18580, 862, 12, {47, 2054052, 12015965, 2112073, 152}},
    {0xa11cf627bf907dafull, 5559, 50582, 25183, 986, 21, {47, 2651880, 15158179, 2320490, 160}},
    {0x55a8e7b7654a030full, 5271, 40222, 20068, 1039, 8, {47, 3489192, 16821465, 2538682, 168}},
    {0xf7cc8b539bb50aefull, 6395, 57972, 28878, 1173, 21, {47, 3486240, 20959460, 2766666, 176}},
    {0x25afd558884a7129ull, 5317, 34006, 16989, 1190, 2, {44, 6161700, 20115868, 2651882, 138}},
    {0x4f17135555ef8759ull, 258, 560, 276, 32, 0, {41, 4620, 21199, 83697, 12}},
    {0xdad517d3d58b2853ull, 21, 0, 0, 6, 0, {21, 36, 130, 1248, 0}},
    {0xdad517d3d58b2853ull, 21, 0, 0, 6, 0, {21, 36, 130, 1248, 0}},
    {0xb6379b67acd73665ull, 54, 48, 24, 20, 0, {21, 540, 1674, 3694, 4}},
    {0x78d1726bfab00a71ull, 386, 698, 313, 96, 28, {27, 4200, 27389, 17772, 24}},
    {0x78d1726bfab00a71ull, 258, 276, 129, 96, 6, {27, 6930, 28810, 17772, 24}},
    {0xae574cbc793cb8e5ull, 114, 36, 16, 24, 2, {27, 270, 1844, 5642, 8}},
    {0x2e3e3839fb4f05b9ull, 74, 48, 22, 20, 0, {21, 270, 1692, 3694, 4}},
    {0x98d83b04455613ffull, 242, 264, 132, 45, 0, {21, 1920, 8095, 7080, 8}},
    {0x978b9704499248ffull, 153, 82, 37, 54, 3, {27, 1920, 9126, 10928, 16}},
    {0xdad517d3d58b2853ull, 14, 0, 0, 6, 0, {24, 36, 136, 1536, 0}},
    {0xd37f8d87787ec61bull, 507, 1026, 489, 150, 21, {27, 11016, 71021, 26190, 32}},
    {0x153c1638cb243423ull, 94, 48, 24, 20, 0, {21, 540, 1714, 3694, 4}},
    {0x6eff7902d05898e5ull, 134, 48, 24, 20, 0, {21, 540, 1754, 3694, 4}},
    {0xdad517d3d58b2853ull, 14, 0, 0, 6, 0, {24, 36, 136, 1536, 0}},
    {0xd37f8d87787ec61bull, 610, 1200, 588, 150, 10, {27, 11016, 66579, 26190, 32}},
    {0x978b9704499248ffull, 153, 82, 37, 54, 2, {27, 1920, 9608, 10928, 16}},
};
// clang-format on

struct Case {
  bool toy;
  cdg::Sentence s;
};

std::vector<Case> golden_corpus(const grammars::CdgBundle& toy,
                                const grammars::CdgBundle& english) {
  std::vector<Case> corpus;
  grammars::SentenceGenerator gen(english, 1992);
  for (int i = 0; i < 64; ++i)
    corpus.push_back({false, gen.generate_sentence(4 + i % 21)});
  static const std::vector<std::string> pool{
      "The", "a", "program", "dog", "compiler", "runs", "halts", "crashes"};
  util::Rng rng(1992);
  for (int i = 0; i < 16; ++i) {
    const int n = 1 + static_cast<int>(rng.next_below(7));
    std::vector<std::string> words;
    for (int w = 0; w < n; ++w) words.push_back(rng.pick(pool));
    corpus.push_back({true, toy.lexicon.tag(words)});
  }
  return corpus;
}

Golden observe(const engine::BackendRun& run) {
  const cdg::NetworkCounters& c = run.stats.network;
  return {run.domains_hash,          c.effective_unary_evals(),
          c.effective_binary_evals(), c.masked_binary_pairs,
          c.eliminations,             c.arc_zeroings,
          {}};
}

Steps observe_steps(const engine::BackendRun& pram,
                    const engine::BackendRun& mesh) {
  return {pram.stats.pram.time_steps, pram.stats.pram.max_processors,
          pram.stats.pram.total_work, mesh.stats.topo_time_steps,
          mesh.stats.topo_reduction_steps};
}

class GoldenFixpoint : public ::testing::Test {
 protected:
  GoldenFixpoint()
      : toy_(grammars::make_toy_grammar()),
        english_(grammars::make_english_grammar()),
        toy_engines_(toy_.grammar),
        english_engines_(english_.grammar),
        corpus_(golden_corpus(toy_, english_)) {}

  const engine::EngineSet& engines(const Case& c) const {
    return c.toy ? toy_engines_ : english_engines_;
  }

  engine::BackendRun run(const Case& c, engine::Backend b) {
    return engine::run_backend(engines(c), b, c.s, &scratch_);
  }

  grammars::CdgBundle toy_;
  grammars::CdgBundle english_;
  engine::EngineSet toy_engines_;
  engine::EngineSet english_engines_;
  std::vector<Case> corpus_;
  engine::NetworkScratch scratch_;
};

TEST_F(GoldenFixpoint, SerialMatchesHashesAndCounters) {
  ASSERT_EQ(std::size(kGolden), corpus_.size());
  for (std::size_t i = 0; i < corpus_.size(); ++i) {
    const Golden got = observe(run(corpus_[i], engine::Backend::Serial));
    const Golden& want = kGolden[i];
    EXPECT_EQ(got.hash, want.hash) << "sentence " << i;
    EXPECT_EQ(got.effective_unary_evals, want.effective_unary_evals)
        << "sentence " << i;
    EXPECT_EQ(got.effective_binary_evals, want.effective_binary_evals)
        << "sentence " << i;
    EXPECT_EQ(got.masked_binary_pairs, want.masked_binary_pairs)
        << "sentence " << i;
    EXPECT_EQ(got.eliminations, want.eliminations) << "sentence " << i;
    EXPECT_EQ(got.arc_zeroings, want.arc_zeroings) << "sentence " << i;
  }
}

TEST_F(GoldenFixpoint, HostEnginesMatchHashes) {
  ASSERT_EQ(std::size(kGolden), corpus_.size());
  for (std::size_t i = 0; i < corpus_.size(); ++i) {
    const Golden& want = kGolden[i];
    const engine::BackendRun pram = run(corpus_[i], engine::Backend::Pram);
    const engine::BackendRun mesh = run(corpus_[i], engine::Backend::Mesh);
    EXPECT_EQ(pram.domains_hash, want.hash) << "sentence " << i << " pram";
    EXPECT_EQ(mesh.domains_hash, want.hash) << "sentence " << i << " mesh";
    const Steps got = observe_steps(pram, mesh);
    EXPECT_EQ(got.pram_time_steps, want.steps.pram_time_steps)
        << "sentence " << i;
    EXPECT_EQ(got.pram_max_processors, want.steps.pram_max_processors)
        << "sentence " << i;
    EXPECT_EQ(got.pram_total_work, want.steps.pram_total_work)
        << "sentence " << i;
    EXPECT_EQ(got.mesh_time_steps, want.steps.mesh_time_steps)
        << "sentence " << i;
    EXPECT_EQ(got.mesh_reduction_steps, want.steps.mesh_reduction_steps)
        << "sentence " << i;
  }
}

// Propagation without per-constraint maintenance, then AC-4 support
// counting to the fixpoint (confluence: the same fixpoint).
TEST_F(GoldenFixpoint, Ac4MatchesHashes) {
  ASSERT_EQ(std::size(kGolden), corpus_.size());
  for (std::size_t i = 0; i < corpus_.size(); ++i) {
    const cdg::SequentialParser& p = engines(corpus_[i]).serial();
    cdg::Network& net = scratch_.acquire(p.grammar(), corpus_[i].s);
    for (std::size_t k = 0; k < p.compiled_unary().size(); ++k)
      p.step_unary(net, k);
    for (std::size_t k = 0; k < p.compiled_binary().size(); ++k)
      p.step_binary(net, k);
    cdg::filter_ac4(net);
    EXPECT_EQ(engine::hash_domains(net), kGolden[i].hash) << "sentence " << i;
  }
}

// Arcs built before unary propagation (over the full initial domains)
// are zeroed through unary eliminations instead of never holding the
// dead values; the fixpoint is the same.
TEST_F(GoldenFixpoint, PrebuiltArcsMatchHashes) {
  ASSERT_EQ(std::size(kGolden), corpus_.size());
  cdg::ParseOptions prebuilt;
  prebuilt.prebuild_arcs = true;
  const cdg::SequentialParser toy(toy_.grammar, prebuilt);
  const cdg::SequentialParser english(english_.grammar, prebuilt);
  for (std::size_t i = 0; i < corpus_.size(); ++i) {
    const cdg::SequentialParser& p = corpus_[i].toy ? toy : english;
    cdg::Network net = p.make_network(corpus_[i].s);
    p.parse(net);
    EXPECT_TRUE(net.check_invariants()) << "sentence " << i;
    EXPECT_EQ(engine::hash_domains(net), kGolden[i].hash) << "sentence " << i;
  }
}

TEST_F(GoldenFixpoint, DISABLED_PrintTable) {
  for (const Case& c : corpus_) {
    const Golden g = observe(run(c, engine::Backend::Serial));
    const Steps st = observe_steps(run(c, engine::Backend::Pram),
                                   run(c, engine::Backend::Mesh));
    std::printf("    {0x%016" PRIx64 "ull, %" PRIu64 ", %" PRIu64 ", %" PRIu64
                ", %" PRIu64 ", %" PRIu64 ", {%" PRIu64 ", %" PRIu64
                ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 "}},\n",
                g.hash, g.effective_unary_evals, g.effective_binary_evals,
                g.masked_binary_pairs, g.eliminations, g.arc_zeroings,
                st.pram_time_steps, st.pram_max_processors,
                st.pram_total_work, st.mesh_time_steps,
                st.mesh_reduction_steps);
  }
}

}  // namespace
