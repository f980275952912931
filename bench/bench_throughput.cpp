// Served-traffic throughput: sentences/second through the batched
// ParseService as worker threads scale.
//
// The paper parallelizes one sentence (O(k + log n) steps); a serving
// deployment also scales across sentences.  This harness replays a
// deterministic English workload from grammars::SentenceGenerator at
// configurable thread counts and batch sizes, verifies every batched
// result is bit-identical to a single-threaded serial parse (the
// service's correctness contract), and writes a BENCH_throughput.json
// report for CI and future perf PRs to diff.
//
//   bench_throughput [--sentences N] [--lo LEN] [--hi LEN]
//                    [--threads T1,T2,...] [--batch B]
//                    [--backend serial|pram|maspar|mesh] [--json PATH]
//                    [--metrics-out PATH] [--trace-out PATH]
//                    [--fault-plan PATH] [--shed-load] [--cache]
//                    [--dup-sweep] [--resilience-out PATH]
//
// --metrics-out writes a Prometheus text scrape of everything the
// services published; --trace-out records one fully traced parse
// (factoring, mask build, AC-4 fixpoint, extraction) as Chrome
// trace-event JSON, openable in Perfetto / chrome://tracing.
//
// --fault-plan installs a resil::FaultPlan (docs/ROBUSTNESS.md text
// format) for the whole run: the chaos-smoke CI job replays a seeded
// plan and asserts zero crashes, structured statuses, and Ok-response
// bit-identity.  --shed-load turns on ParseService admission control
// (queue overflow answers Overloaded instead of blocking).  --cache
// enables the parse-result cache on every swept service (hits must
// stay bit-identical, fault plans included — a failed leader abandons
// its slot, it never caches a corrupt result).  --dup-sweep replays a
// 90%-duplicate request stream through a cache-off and a cache-on
// single-threaded service and reports hit rate + speedup; run at one
// thread the cache counters it publishes are exact, so the perf-gate
// CI job pins them in bench/baselines/throughput_counters.json.
// --resilience-out sweeps injected fault rates (0%, 1%, 5%) across a
// mixed-backend workload and writes goodput/p99 per rate.
//
// Exits nonzero only on a correctness (bit-identity) failure; speedup
// is reported, not asserted, so low-core CI boxes stay green.
#include <fstream>
#include <iostream>
#include <iterator>
#include <sstream>

#include <memory>
#include <optional>

#include "bench_common.h"
#include "cdg/ac4.h"
#include "cdg/extract.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parsec/backend.h"
#include "resil/fault_plan.h"
#include "serve/parse_service.h"
#include "serve/report.h"
#include "util/table.h"

namespace {

using namespace parsec;

struct Config {
  int sentences = 120;
  int lo = 4, hi = 10;
  std::vector<int> threads = {1, 2, 4, 8};
  std::size_t batch = 32;
  engine::Backend backend = engine::Backend::Serial;
  std::string json_path = "BENCH_throughput.json";
  std::string metrics_path;     // empty = no scrape
  std::string trace_path;       // empty = no trace
  std::string fault_plan_path;  // empty = no injected faults
  bool shed_load = false;
  bool cache = false;           // result cache on the swept services
  bool dup_sweep = false;       // duplicated-traffic cache sweep
  std::string resilience_path;  // empty = no fault-rate sweep
};

std::vector<int> parse_int_list(const std::string& s) {
  std::vector<int> out;
  std::istringstream is(s);
  std::string tok;
  while (std::getline(is, tok, ',')) out.push_back(std::stoi(tok));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  try {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      return i + 1 < argc ? std::string(argv[++i]) : std::string();
    };
    if (arg == "--sentences")
      cfg.sentences = std::stoi(next());
    else if (arg == "--lo")
      cfg.lo = std::stoi(next());
    else if (arg == "--hi")
      cfg.hi = std::stoi(next());
    else if (arg == "--threads")
      cfg.threads = parse_int_list(next());
    else if (arg == "--batch")
      cfg.batch = static_cast<std::size_t>(std::stoul(next()));
    else if (arg == "--backend") {
      auto b = engine::backend_from_name(next());
      if (!b) {
        std::cerr << "unknown backend\n";
        return 2;
      }
      cfg.backend = *b;
    } else if (arg == "--json")
      cfg.json_path = next();
    else if (arg == "--metrics-out")
      cfg.metrics_path = next();
    else if (arg == "--trace-out")
      cfg.trace_path = next();
    else if (arg == "--fault-plan")
      cfg.fault_plan_path = next();
    else if (arg == "--shed-load")
      cfg.shed_load = true;
    else if (arg == "--cache")
      cfg.cache = true;
    else if (arg == "--dup-sweep")
      cfg.dup_sweep = true;
    else if (arg == "--resilience-out")
      cfg.resilience_path = next();
    else {
      std::cerr << "usage: bench_throughput [--sentences N] [--lo L] [--hi H]"
                   " [--threads T1,T2,...] [--batch B] [--backend NAME]"
                   " [--json PATH] [--metrics-out PATH] [--trace-out PATH]"
                   " [--fault-plan PATH] [--shed-load] [--cache]"
                   " [--dup-sweep] [--resilience-out PATH]\n";
      return 2;
    }
  }
  } catch (const std::exception&) {  // non-numeric value for a numeric flag
    std::cerr << "bench_throughput: bad numeric argument\n";
    return 2;
  }

  auto bundle = grammars::make_english_grammar();
  grammars::SentenceGenerator gen(bundle, bench::kSeed);
  std::vector<cdg::Sentence> workload;
  workload.reserve(static_cast<std::size_t>(cfg.sentences));
  for (int i = 0; i < cfg.sentences; ++i)
    workload.push_back(
        gen.generate_sentence(cfg.lo + i % (cfg.hi - cfg.lo + 1)));

  // Single-threaded serial reference fingerprints (the bit-identity
  // contract every batched configuration must reproduce).
  cdg::SequentialParser seq(bundle.grammar);
  std::vector<std::uint64_t> reference;
  reference.reserve(workload.size());
  const double serial_secs = bench::time_host([&] {
    for (const auto& s : workload) {
      cdg::Network net = seq.make_network(s);
      seq.parse(net);
      std::vector<util::DynBitset> domains;
      for (int r = 0; r < net.num_roles(); ++r)
        domains.emplace_back(net.domain(r));
      reference.push_back(engine::hash_domains(domains));
    }
  });

  // Seeded chaos mode: install the plan for the whole sweep.  The
  // service degrades injected faults to structured statuses; the
  // bit-identity contract then applies to every Ok response.
  std::optional<resil::FaultPlan> fault_plan;
  std::unique_ptr<resil::ScopedFaultPlan> fault_scope;
  if (!cfg.fault_plan_path.empty()) {
    try {
      fault_plan = resil::FaultPlan::load(cfg.fault_plan_path);
    } catch (const std::invalid_argument& e) {
      std::cerr << "bench_throughput: " << e.what() << "\n";
      return 2;
    }
    fault_scope = std::make_unique<resil::ScopedFaultPlan>(*fault_plan);
  }

  std::cout
      << "=============================================================\n"
      << "Throughput: batched ParseService vs single-thread, backend "
      << engine::to_string(cfg.backend) << "\n"
      << cfg.sentences << " English sentences, lengths " << cfg.lo << ".."
      << cfg.hi << ", batch size " << cfg.batch << "\n";
  if (fault_plan)
    std::cout << "fault plan: " << cfg.fault_plan_path << " (seed "
              << fault_plan->seed() << ")"
              << (cfg.shed_load ? ", shedding load" : "") << "\n";
  if (cfg.cache) std::cout << "result cache: enabled\n";
  std::cout
      << "=============================================================\n\n";

  util::Table table({"threads", "wall s", "sent/s", "ok/s", "speedup", "eff",
                     "p50 ms", "p95 ms", "p99 ms", "bit-identical"});
  std::vector<serve::ThroughputRow> rows;
  bool all_identical = true;
  bool all_structured = true;
  double single_thread_sps = 0.0;

  for (int threads : cfg.threads) {
    serve::ParseService::Options opt;
    opt.threads = threads;
    opt.queue_capacity = std::max<std::size_t>(cfg.batch * 2, 64);
    opt.shed_load = cfg.shed_load;
    opt.enable_result_cache = cfg.cache;
    serve::ParseService service(bundle.grammar, opt);

    std::vector<std::uint64_t> hashes(workload.size(), 0);
    std::vector<serve::RequestStatus> statuses(workload.size(),
                                               serve::RequestStatus::Ok);
    const double wall = bench::time_host([&] {
      for (std::size_t base = 0; base < workload.size(); base += cfg.batch) {
        const std::size_t end =
            std::min(base + cfg.batch, workload.size());
        std::vector<serve::ParseRequest> batch;
        batch.reserve(end - base);
        for (std::size_t i = base; i < end; ++i) {
          serve::ParseRequest r;
          r.sentence = workload[i];
          r.backend = cfg.backend;
          batch.push_back(std::move(r));
        }
        auto responses = service.parse_batch(std::move(batch));
        for (std::size_t i = base; i < end; ++i) {
          hashes[i] = responses[i - base].domains_hash;
          statuses[i] = responses[i - base].status;
        }
      }
    });

    // All backends (maspar included) run filtering to the fixpoint
    // under the service defaults, so every Ok hash must match serial.
    // Under an installed fault plan some requests degrade to Faulted /
    // Overloaded — structured statuses, never corrupted results.
    bool identical = true;
    std::uint64_t ok_count = 0;
    for (std::size_t i = 0; i < workload.size(); ++i) {
      if (statuses[i] == serve::RequestStatus::Ok) {
        ++ok_count;
        if (hashes[i] != reference[i]) identical = false;
      } else if (statuses[i] != serve::RequestStatus::Faulted &&
                 statuses[i] != serve::RequestStatus::Overloaded &&
                 statuses[i] != serve::RequestStatus::Timeout) {
        all_structured = false;
      }
    }
    if (!fault_plan && !cfg.shed_load && ok_count != workload.size())
      identical = false;  // fault-free runs must answer everything Ok
    all_identical = all_identical && identical;
    const double goodput = static_cast<double>(ok_count) / wall;

    serve::ThroughputRow row;
    row.threads = threads;
    row.batch_size = cfg.batch;
    row.backend = engine::to_string(cfg.backend);
    row.sentences = workload.size();
    row.wall_seconds = wall;
    row.throughput_sps = static_cast<double>(workload.size()) / wall;
    if (threads == 1) single_thread_sps = row.throughput_sps;
    row.speedup = single_thread_sps > 0
                      ? row.throughput_sps / single_thread_sps
                      : 0.0;
    row.efficiency = threads > 0 ? row.speedup / threads : 0.0;
    row.stats = service.stats();
    rows.push_back(row);

    table.add_row({std::to_string(threads), bench::fmt(wall, "%.3f"),
                   bench::fmt(row.throughput_sps, "%.1f"),
                   bench::fmt(goodput, "%.1f"),
                   bench::fmt(row.speedup, "%.2f"),
                   bench::fmt(row.efficiency, "%.2f"),
                   bench::fmt(row.stats.latency_p50_ms, "%.2f"),
                   bench::fmt(row.stats.latency_p95_ms, "%.2f"),
                   bench::fmt(row.stats.latency_p99_ms, "%.2f"),
                   identical ? "yes" : "NO"});
  }
  table.print(std::cout);

  std::cout << "\nplain single-thread loop (no service): "
            << bench::fmt(static_cast<double>(workload.size()) / serial_secs,
                          "%.1f")
            << " sent/s\n";

  // Duplicated-traffic sweep: real serving traffic repeats itself, so
  // replay a stream that cycles 10% of the workload (90% duplicates)
  // through a cache-off and a cache-on service and compare.  One
  // thread, one stream: the hit/miss counters are exact — the first
  // pass over the uniques misses, every later cycle hits — which is
  // what lets the perf gate pin parsec_serve_cache_* in a baseline.
  std::optional<serve::DupSweepResult> dup;
  if (cfg.dup_sweep) {
    const std::size_t uniques =
        std::max<std::size_t>(1, workload.size() / 10);
    const std::size_t total = workload.size();
    auto replay = [&](bool with_cache, bool& identical) {
      serve::ParseService::Options opt;
      opt.threads = 1;
      opt.queue_capacity = std::max<std::size_t>(cfg.batch * 2, 64);
      opt.enable_result_cache = with_cache;
      serve::ParseService service(bundle.grammar, opt);
      std::vector<serve::ParseResponse> responses;
      const double wall = bench::time_host([&] {
        for (std::size_t base = 0; base < total; base += cfg.batch) {
          const std::size_t end = std::min(base + cfg.batch, total);
          std::vector<serve::ParseRequest> batch;
          batch.reserve(end - base);
          for (std::size_t i = base; i < end; ++i) {
            serve::ParseRequest r;
            r.sentence = workload[i % uniques];
            r.backend = cfg.backend;
            batch.push_back(std::move(r));
          }
          auto got = service.parse_batch(std::move(batch));
          responses.insert(responses.end(),
                           std::make_move_iterator(got.begin()),
                           std::make_move_iterator(got.end()));
        }
      });
      for (std::size_t i = 0; i < responses.size(); ++i)
        if (responses[i].status != serve::RequestStatus::Ok ||
            responses[i].domains_hash != reference[i % uniques])
          identical = false;
      dup->cache = service.stats().cache;  // cache-off pass: all zeros
      return wall;
    };

    dup.emplace();
    dup->requests = total;
    dup->unique_sentences = uniques;
    dup->threads = 1;
    dup->backend = engine::to_string(cfg.backend);
    bool identical = true;
    dup->wall_off_seconds = replay(false, identical);
    dup->wall_on_seconds = replay(true, identical);
    all_identical = all_identical && identical;
    dup->sps_off = static_cast<double>(total) / dup->wall_off_seconds;
    dup->sps_on = static_cast<double>(total) / dup->wall_on_seconds;
    dup->speedup = dup->sps_off > 0 ? dup->sps_on / dup->sps_off : 0.0;
    dup->hit_rate =
        dup->cache.lookups
            ? static_cast<double>(dup->cache.hits + dup->cache.coalesced) /
                  static_cast<double>(dup->cache.lookups)
            : 0.0;

    std::cout << "\nduplicated-traffic sweep (" << total << " requests over "
              << uniques << " unique sentences, 1 thread):\n";
    util::Table dtable({"cache", "wall s", "sent/s", "hit rate", "speedup",
                        "bit-identical"});
    dtable.add_row({"off", bench::fmt(dup->wall_off_seconds, "%.3f"),
                    bench::fmt(dup->sps_off, "%.1f"), "-", "1.00",
                    identical ? "yes" : "NO"});
    dtable.add_row({"on", bench::fmt(dup->wall_on_seconds, "%.3f"),
                    bench::fmt(dup->sps_on, "%.1f"),
                    bench::fmt(dup->hit_rate * 100.0, "%.1f%%"),
                    bench::fmt(dup->speedup, "%.2f"),
                    identical ? "yes" : "NO"});
    dtable.print(std::cout);
    std::cout << "cache: " << dup->cache.misses << " misses, "
              << dup->cache.hits << " hits, " << dup->cache.coalesced
              << " coalesced, " << dup->cache.evictions << " evicted\n";
  }

  // SoA lane-batching sweep (serial backend only — the interleaved
  // batcher is a host-fixpoint kernel).  The whole workload goes to the
  // service in one parse_batch call so same-length requests can fill
  // 8-wide lane groups; off vs on isolates the SoA kernel win at the
  // service level.  One thread keeps the occupancy counters exact, so
  // the perf gate pins parsec_serve_batches_total /
  // parsec_serve_batched_requests_total in the throughput baseline.
  std::optional<serve::BatchSweepResult> soa;
  if (cfg.backend == engine::Backend::Serial && !fault_plan &&
      !cfg.shed_load) {
    auto replay = [&](bool batching, bool& identical,
                      serve::ServiceStats& out_stats) {
      serve::ParseService::Options opt;
      opt.threads = 1;
      opt.queue_capacity = std::max(workload.size() * 2, std::size_t{64});
      opt.enable_batching = batching;
      serve::ParseService service(bundle.grammar, opt);
      auto submit_all = [&] {
        std::vector<serve::ParseRequest> batch;
        batch.reserve(workload.size());
        for (const auto& s : workload) {
          serve::ParseRequest r;
          r.sentence = s;
          batch.push_back(std::move(r));
        }
        return service.parse_batch(std::move(batch));
      };
      // One untimed warm replay first: both paths pool per-shape state
      // (NetworkScratch / the worker's BatchParser), and a server at
      // steady state runs warm — timing the cold construction would
      // charge the batched path 8x the network builds per shape.
      submit_all();
      const serve::ServiceStats warm_stats = service.stats();
      std::vector<serve::ParseResponse> responses;
      const double wall = bench::time_host([&] {
        responses = submit_all();
      });
      for (std::size_t i = 0; i < responses.size(); ++i)
        if (responses[i].status != serve::RequestStatus::Ok ||
            responses[i].domains_hash != reference[i])
          identical = false;
      out_stats = service.stats();
      // Occupancy accounting for the timed replay only.
      out_stats.batches -= warm_stats.batches;
      out_stats.batched_requests -= warm_stats.batched_requests;
      return wall;
    };

    soa.emplace();
    soa->requests = workload.size();
    soa->threads = 1;
    bool identical = true;
    serve::ServiceStats off_stats, on_stats;
    soa->wall_off_seconds = replay(false, identical, off_stats);
    soa->wall_on_seconds = replay(true, identical, on_stats);
    all_identical = all_identical && identical;
    soa->sps_off =
        static_cast<double>(soa->requests) / soa->wall_off_seconds;
    soa->sps_on = static_cast<double>(soa->requests) / soa->wall_on_seconds;
    soa->speedup = soa->sps_off > 0 ? soa->sps_on / soa->sps_off : 0.0;
    soa->batches = on_stats.batches;
    soa->batched_requests = on_stats.batched_requests;
    soa->occupancy =
        soa->batches
            ? static_cast<double>(soa->batched_requests) /
                  (static_cast<double>(soa->batches) *
                   static_cast<double>(cdg::BatchParser::kLanes))
            : 0.0;

    std::cout << "\nSoA lane-batching sweep (" << soa->requests
              << " requests, 1 thread, whole workload per submit):\n";
    util::Table btable({"batching", "wall s", "sent/s", "speedup",
                        "batches", "occupancy", "bit-identical"});
    btable.add_row({"off", bench::fmt(soa->wall_off_seconds, "%.3f"),
                    bench::fmt(soa->sps_off, "%.1f"), "1.00", "-", "-",
                    identical ? "yes" : "NO"});
    btable.add_row({"on", bench::fmt(soa->wall_on_seconds, "%.3f"),
                    bench::fmt(soa->sps_on, "%.1f"),
                    bench::fmt(soa->speedup, "%.2f"),
                    std::to_string(soa->batches),
                    bench::fmt(soa->occupancy * 100.0, "%.1f%%"),
                    identical ? "yes" : "NO"});
    btable.print(std::cout);
  }

  std::ostringstream workload_desc;
  workload_desc << "english n=" << cfg.lo << ".." << cfg.hi << " x"
                << cfg.sentences << " batch=" << cfg.batch;
  // Pre-vectorization reference for the default workload (serial
  // backend, 1 thread, 120 sentences n=4..10): lets a single report
  // carry its own before/after comparison.
  serve::ThroughputBaseline baseline;
  baseline.captured = "2026-08-06";
  baseline.commit = "pre-mask-kernels main";
  baseline.single_thread_sps = 2983.9;
  const bool default_workload = cfg.sentences == 120 && cfg.lo == 4 &&
                                cfg.hi == 10 &&
                                cfg.backend == engine::Backend::Serial;
  std::ofstream json(cfg.json_path);
  serve::write_throughput_report(json, workload_desc.str(), rows,
                                 default_workload ? &baseline : nullptr,
                                 dup ? &*dup : nullptr, soa ? &*soa : nullptr);
  std::cout << "report: " << cfg.json_path << "\n";

  // Every service above published into the global registry; one scrape
  // carries all of them (the doc reference is docs/OBSERVABILITY.md).
  if (!cfg.metrics_path.empty()) {
    std::ofstream m(cfg.metrics_path);
    m << obs::Registry::global().scrape();
    std::cout << "metrics: " << cfg.metrics_path << "\n";
  }

  // Traced section, end to end: first a small batch through a real
  // ParseService (so the trace carries serve.request -> backend.*
  // envelope -> engine-phase chains across worker threads — the
  // request graph parsec_analyze reconstructs), then one fully traced
  // direct parse: factoring (EngineSet construction), propagation +
  // mask builds (run_backend), an AC-4 fixpoint check, and parse
  // extraction — the span taxonomy of docs/OBSERVABILITY.md in a single
  // timeline.
  if (!cfg.trace_path.empty()) {
    obs::TraceSession session;
    {
      // Isolated registry: the traced service's counters must not
      // leak into Registry::global() scrapes.
      obs::Registry traced_registry;
      serve::ParseService::Options sopt;
      sopt.threads = 2;
      sopt.metrics = &traced_registry;
      serve::ParseService traced_service(bundle.grammar, sopt);
      const std::size_t traced_n = std::min<std::size_t>(workload.size(), 8);
      std::vector<serve::ParseRequest> batch;
      for (std::size_t i = 0; i < traced_n; ++i) {
        serve::ParseRequest r;
        r.sentence = workload[i];
        r.backend = cfg.backend;
        batch.push_back(std::move(r));
      }
      traced_service.parse_batch(std::move(batch));
      // The service joins its workers here, quiescing every recording
      // thread before the session is written.
    }
    engine::EngineSet traced(bundle.grammar);
    engine::run_backend(traced, cfg.backend, workload.front());
    cdg::Network net = seq.make_network(workload.front());
    seq.parse(net);
    cdg::filter_ac4(net);
    cdg::extract_parses(net, /*limit=*/8);
    std::ofstream t(cfg.trace_path);
    session.write_chrome_trace(t);
    std::cout << "trace: " << cfg.trace_path << " (" << session.span_count()
              << " spans)\n";
  }

  if (fault_plan) {
    std::cout << "\nfault plan fired " << fault_plan->total_fires()
              << " time(s):\n";
    for (const auto& site : fault_plan->sites())
      std::cout << "  " << site << ": " << fault_plan->fires(site) << "/"
                << fault_plan->queries(site) << " queries\n";
  }

  // Fault-rate sweep: goodput and p99 under 0%, 1%, 5% injected fault
  // rates on a mixed-backend workload (every request exercises the
  // site its backend owns; faulted requests fall back on Serial).
  if (!cfg.resilience_path.empty()) {
    // The sweep installs its own plans; release the CLI-provided one.
    fault_scope.reset();
    std::cout << "\nresilience sweep (mixed backends, " << cfg.sentences
              << " sentences):\n";
    util::Table rtable({"fault rate", "wall s", "sent/s", "ok/s", "faulted",
                        "fallbacks", "p99 ms"});
    std::ofstream rjson(cfg.resilience_path);
    rjson << "{\n  \"workload\": \"" << workload_desc.str()
          << " mixed-backends\",\n  \"rates\": [\n";
    const double kRates[] = {0.0, 0.01, 0.05};
    bool sweep_identical = true;
    for (std::size_t ri = 0; ri < std::size(kRates); ++ri) {
      const double rate = kRates[ri];
      resil::FaultPlan plan(bench::kSeed);
      if (rate > 0.0) {
        resil::FaultSpec fault;
        fault.probability = rate;
        plan.arm("arena.alloc", fault);
        plan.arm("maspar.router", fault);
        resil::FaultSpec latency;
        latency.probability = rate;
        latency.param = 0.0002;  // 200us per hit
        plan.arm("engine.latency", latency);
      }
      resil::ScopedFaultPlan scope(plan);
      serve::ParseService::Options opt;
      opt.threads = cfg.threads.back();
      opt.queue_capacity = std::max<std::size_t>(cfg.batch * 2, 64);
      serve::ParseService service(bundle.grammar, opt);
      std::uint64_t ok_count = 0;
      const double wall = bench::time_host([&] {
        for (std::size_t base = 0; base < workload.size();
             base += cfg.batch) {
          const std::size_t end =
              std::min(base + cfg.batch, workload.size());
          std::vector<serve::ParseRequest> batch;
          for (std::size_t i = base; i < end; ++i) {
            serve::ParseRequest r;
            r.sentence = workload[i];
            r.backend = engine::kAllBackends[i % engine::kNumBackends];
            batch.push_back(std::move(r));
          }
          auto responses = service.parse_batch(std::move(batch));
          for (std::size_t i = base; i < end; ++i) {
            if (responses[i - base].status == serve::RequestStatus::Ok) {
              ++ok_count;
              if (responses[i - base].domains_hash != reference[i])
                sweep_identical = false;
            }
          }
        }
      });
      const serve::ServiceStats s = service.stats();
      const double goodput = static_cast<double>(ok_count) / wall;
      rtable.add_row({bench::fmt(rate * 100.0, "%.0f%%"),
                      bench::fmt(wall, "%.3f"),
                      bench::fmt(static_cast<double>(workload.size()) / wall,
                                 "%.1f"),
                      bench::fmt(goodput, "%.1f"),
                      std::to_string(s.faulted),
                      std::to_string(s.fallback_retries),
                      bench::fmt(s.latency_p99_ms, "%.2f")});
      rjson << "    {\"fault_rate\": " << rate
            << ", \"wall_seconds\": " << wall
            << ", \"throughput_sps\": "
            << static_cast<double>(workload.size()) / wall
            << ", \"goodput_sps\": " << goodput
            << ", \"ok\": " << ok_count << ", \"faulted\": " << s.faulted
            << ", \"fallback_retries\": " << s.fallback_retries
            << ", \"fallback_ok\": " << s.fallback_ok
            << ", \"breaker_trips\": " << s.breaker_trips
            << ", \"latency_p99_ms\": " << s.latency_p99_ms
            << ", \"injected_fires\": " << plan.total_fires() << "}"
            << (ri + 1 < std::size(kRates) ? "," : "") << "\n";
    }
    rjson << "  ]\n}\n";
    rtable.print(std::cout);
    std::cout << "resilience report: " << cfg.resilience_path << "\n";
    all_identical = all_identical && sweep_identical;
  }

  if (!all_identical || !all_structured) {
    std::cout << (all_identical ? "verdict: UNSTRUCTURED STATUS\n"
                                : "verdict: BIT-IDENTITY FAILURE\n");
    return 1;
  }
  std::cout << "verdict: batched results bit-identical to serial\n";
  return 0;
}
