// Memory accounting: per-PE state vs the MP-1's 16 KB local memory
// (§2.2), the arena-backed host CN's O(n^4) footprint and region
// breakdown, and allocation behaviour of the pooled steady state (cold
// first parse allocates the arena once; warm same-shape parses must be
// allocation-free).  Writes BENCH_memory.json.
//
// Usage: bench_memory [--json PATH]
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
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
    std::size_t arena_bytes, domains_bytes, arcs_bytes, masks_bytes;
  };
  std::vector<Row> rows;
  util::Table t({"n", "virtual PEs", "PE-local bytes", "fits 16KB",
                 "arena bytes", "arcs", "masks", "arena / n^4"});
  for (int n : {4, 8, 12, 16, 20, 24}) {
    cdg::Sentence s = gen.generate_sentence(n);
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

    // Host-side CN: ONE arena allocation carries domains, compact arc
    // matrices, truth masks and elimination staging (§2.2.1's
    // fixed-offset PE-array layout, hosted).
    cdg::Network net(bundle.grammar, s);
    const cdg::NetworkArena& a = net.arena();
    const double n4 = static_cast<double>(n) * n * n * n;
    rows.push_back({n, layout.vpes(), phys_bytes, a.bytes(),
                    a.domains_bytes(), a.arcs_bytes(), a.masks_bytes()});
    t.add_row({std::to_string(n), std::to_string(layout.vpes()),
               std::to_string(phys_bytes),
               phys_bytes <= 16 * 1024 ? "yes" : "NO",
               util::format_value(static_cast<double>(a.bytes())),
               util::format_value(static_cast<double>(a.arcs_bytes())),
               util::format_value(static_cast<double>(a.masks_bytes())),
               bench::fmt(static_cast<double>(a.bytes()) / n4, "%.1f")});
  }
  t.print(std::cout);
  std::cout
      << "\nReading: even heavily virtualized, PE-local state stays\n"
         "orders of magnitude under the 16 KB budget.  The arena column\n"
         "is the CN's single backing allocation.  Its arcs are compact\n"
         "post-unary blocks, sized from the grammar's labels per role\n"
         "rather than all |L| labels, at 64 values per word: still\n"
         "O(n^4), with a constant small enough that the dense truth\n"
         "masks are of the same order.\n\n";

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
  json << "  \"arena\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    json << "    {\"n\": " << r.n << ", \"vpes\": " << r.vpes
         << ", \"pe_local_bytes\": " << r.pe_bytes
         << ", \"arena_bytes\": " << r.arena_bytes
         << ", \"domains_bytes\": " << r.domains_bytes
         << ", \"arcs_bytes\": " << r.arcs_bytes
         << ", \"masks_bytes\": " << r.masks_bytes << "}"
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
