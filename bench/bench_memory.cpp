// Memory accounting: per-PE state vs the MP-1's 16 KB local memory
// (§2.2), the arena-backed host CN's footprint and region breakdown after
// one cold parse per length (n = 4..24, and 32, 64 and 128 beyond the
// pair region's 1 MB floor), and allocation behaviour of the pooled
// steady state (a cold first parse allocates each arena region once;
// warm same-shape parses must be allocation-free).  Writes
// BENCH_memory.json.
//
// Usage: bench_memory [--json PATH]
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <optional>
#include <string>

#include "bench_common.h"
#include "cdg/parser.h"
#include "maspar/layout.h"
#include "maspar/machine.h"
#include "parsec/backend.h"
#include "util/table.h"

// ---------------------------------------------------------------------
// Global heap instrumentation: every operator new/delete in the process
// bumps a counter, so "steady-state parses allocate nothing" is a
// measured fact, not an inference from arena bookkeeping.
// ---------------------------------------------------------------------
namespace {
std::atomic<std::uint64_t> g_news{0}, g_deletes{0};
}  // namespace

void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept {
  if (p) g_deletes.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

int main(int argc, char** argv) {
  using namespace parsec;
  std::string json_path = "BENCH_memory.json";
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc)
      json_path = argv[++i];
  }

  auto bundle = grammars::make_english_grammar();
  grammars::SentenceGenerator gen(bundle, bench::kSeed);

  std::cout
      << "==============================================================\n"
      << "Memory accounting: per-PE state vs the MP-1's 16 KB local\n"
      << "memory, and the arena-backed CN's O(n^4) footprint\n"
      << "==============================================================\n\n";

  // ---- table 1: PE-local memory + arena region breakdown -------------
  struct Row {
    int n;
    int vpes;
    std::size_t pe_bytes;
    std::size_t arena_bytes, domains_bytes, pairs_bytes, masks_bytes;
    std::size_t pair_values;
    double construct_ms, parse_ms;
  };
  std::vector<Row> rows;
  const cdg::SequentialParser serial(bundle.grammar);
  util::Table t({"n", "virtual PEs", "PE-local bytes", "fits 16KB",
                 "arena bytes", "pairs", "masks", "|V|", "construct ms",
                 "parse ms"});
  // The long rows draw from their own generator, so the steady-state
  // workload below sees the same sentences as without them.
  grammars::SentenceGenerator long_gen(bundle, bench::kSeed + 1);
  for (int n : {4, 8, 12, 16, 20, 24, 32, 64, 128}) {
    cdg::Sentence s = (n <= 24 ? gen : long_gen).generate_sentence(n);
    maspar::Layout layout(bundle.grammar, s);
    // Per-PE state: the l x l bit submatrix (packed into 8 bytes here;
    // l^2 bits on the real machine) + segment ids, partner id and the
    // mod/label slot registers: a handful of 32-bit words.
    const int l = layout.labels_per_role();
    const std::size_t pe_bytes = (static_cast<std::size_t>(l) * l + 7) / 8 +
                                 4 * sizeof(std::int32_t);
    // With virtualization, each physical PE holds virt_factor copies.
    const int vf =
        (layout.vpes() + maspar::kMp1MaxPes - 1) / maspar::kMp1MaxPes;
    const std::size_t phys_bytes = pe_bytes * static_cast<std::size_t>(vf);

    // Host-side CN, built and parsed cold: the shape region (domains,
    // truth masks, elimination staging) is allocated at construction,
    // the pair matrix when the first binary constraint compacts the
    // survivors.
    std::optional<cdg::Network> net;
    const double construct_s =
        bench::time_host([&] { net.emplace(bundle.grammar, s); });
    const double parse_s = bench::time_host([&] { serial.parse(*net); });
    const cdg::NetworkArena& a = net->arena();
    rows.push_back({n, layout.vpes(), phys_bytes, a.bytes(),
                    a.domains_bytes(), a.pairs_bytes(), a.masks_bytes(),
                    a.pair_values(), construct_s * 1e3, parse_s * 1e3});
    t.add_row({std::to_string(n), std::to_string(layout.vpes()),
               std::to_string(phys_bytes),
               phys_bytes <= 16 * 1024 ? "yes" : "NO",
               util::format_value(static_cast<double>(a.bytes())),
               util::format_value(static_cast<double>(a.pairs_bytes())),
               util::format_value(static_cast<double>(a.masks_bytes())),
               std::to_string(a.pair_values()),
               bench::fmt(construct_s * 1e3, "%.3f"),
               bench::fmt(parse_s * 1e3, "%.3f")});
  }
  t.print(std::cout);
  std::cout
      << "\nReading: even heavily virtualized, PE-local state stays\n"
         "orders of magnitude under the 16 KB budget.  The arena column\n"
         "is the CN's two backing allocations after one cold parse.  The\n"
         "pair matrix spans only the values that survive unary\n"
         "propagation (|V|); its region is sized min(worst case,\n"
         "max(1 MB, 2 x need)), so up to n = 26 it holds the (grammar, n)\n"
         "worst case and beyond that it grows with the survivors, not\n"
         "with n^4.  The dense truth masks are the largest region there.\n\n";

  // ---- table 2: allocation counts, cold vs pooled steady state -------
  std::cout
      << "==============================================================\n"
      << "Heap behaviour: cold first parse vs pooled steady state\n"
      << "(global operator new/delete counts around run_backend)\n"
      << "==============================================================\n\n";

  engine::EngineSet engines(bundle.grammar);
  engine::NetworkScratch scratch;
  std::vector<cdg::Sentence> ws;
  for (int i = 0; i < 24; ++i) ws.push_back(gen.generate_sentence(8 + i % 5));

  auto parse_all = [&]() {
    std::uint64_t h = 0;
    for (const auto& s : ws)
      h ^= engine::run_backend(engines, engine::Backend::Serial, s, &scratch)
               .domains_hash;
    return h;
  };

  const std::uint64_t news_before_cold = g_news.load();
  const std::uint64_t hash_cold = parse_all();  // pool fills: 5 shapes
  const std::uint64_t cold_allocs = g_news.load() - news_before_cold;

  const std::uint64_t news_before_warm = g_news.load();
  const int warm_rounds = 10;
  std::uint64_t hash_warm = 0;
  for (int r = 0; r < warm_rounds; ++r) hash_warm = parse_all();
  const std::uint64_t warm_allocs = g_news.load() - news_before_warm;
  const double warm_per_parse =
      static_cast<double>(warm_allocs) /
      static_cast<double>(warm_rounds * ws.size());

  // Throughput of the warm pooled path (the pre-refactor serial sweep
  // measured ~1090 sentences/s on this exact workload).
  constexpr double kBaselineSps = 1090.0;
  const double secs = bench::time_host([&]() {
    for (int r = 0; r < 3; ++r) parse_all();
  });
  const double sps = 3.0 * static_cast<double>(ws.size()) / secs;

  util::Table t2({"phase", "parses", "heap allocs", "allocs/parse"});
  t2.add_row({"cold (pool filling)", std::to_string(ws.size()),
              std::to_string(cold_allocs),
              bench::fmt(static_cast<double>(cold_allocs) /
                             static_cast<double>(ws.size()),
                         "%.2f")});
  t2.add_row({"steady state (pooled)",
              std::to_string(warm_rounds * ws.size()),
              std::to_string(warm_allocs),
              bench::fmt(warm_per_parse, "%.4f")});
  t2.print(std::cout);

  std::cout << "\narena pool: " << scratch.pooled_shapes() << " shapes, "
            << scratch.arena_bytes() << " bytes, "
            << scratch.arena_allocations() << " backing allocations, "
            << scratch.arena_reinits() << " same-shape reinits ("
            << scratch.reuses() << " network reuses)\n";
  std::cout << "fixpoint throughput (warm, serial): " << bench::fmt(sps, "%.0f")
            << " sentences/s  (pre-arena baseline " << kBaselineSps
            << ")\n";
  std::cout << "hash cold " << std::hex << hash_cold << " / warm " << hash_warm
            << std::dec
            << (hash_cold == hash_warm ? "  (bit-identical)\n"
                                       : "  (MISMATCH!)\n");

  // ---- BENCH_memory.json ---------------------------------------------
  std::ofstream json(json_path);
  json << "{\n  \"workload\": \"english n=8..12, 24 sentences, serial\",\n";
  json << "  \"arena_after\": \"one cold serial parse per n\",\n";
  json << "  \"arena\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    json << "    {\"n\": " << r.n << ", \"vpes\": " << r.vpes
         << ", \"pe_local_bytes\": " << r.pe_bytes
         << ", \"arena_bytes\": " << r.arena_bytes
         << ", \"domains_bytes\": " << r.domains_bytes
         << ", \"pairs_bytes\": " << r.pairs_bytes
         << ", \"masks_bytes\": " << r.masks_bytes
         << ", \"pair_values\": " << r.pair_values
         << ", \"construct_ms\": " << bench::fmt(r.construct_ms, "%.3f")
         << ", \"parse_ms\": " << bench::fmt(r.parse_ms, "%.3f") << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ],\n";
  json << "  \"pool\": {\"shapes\": " << scratch.pooled_shapes()
       << ", \"bytes\": " << scratch.arena_bytes()
       << ", \"backing_allocations\": " << scratch.arena_allocations()
       << ", \"reinits\": " << scratch.arena_reinits()
       << ", \"reuses\": " << scratch.reuses() << "},\n";
  json << "  \"heap\": {\"cold_parses\": " << ws.size()
       << ", \"cold_allocs\": " << cold_allocs
       << ", \"steady_parses\": " << warm_rounds * ws.size()
       << ", \"steady_allocs\": " << warm_allocs
       << ", \"steady_allocs_per_parse\": " << bench::fmt(warm_per_parse, "%.6f")
       << "},\n";
  json << "  \"throughput\": {\"sentences_per_second\": "
       << bench::fmt(sps, "%.1f")
       << ", \"baseline_pre_arena_sps\": " << kBaselineSps
       << ", \"speedup_vs_baseline\": " << bench::fmt(sps / kBaselineSps, "%.3f")
       << "}\n}\n";
  std::cout << "report: " << json_path << "\n";

  return hash_cold == hash_warm ? 0 : 1;
}
