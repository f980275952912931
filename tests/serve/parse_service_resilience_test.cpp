// ParseService degradation paths: worker-boundary exception
// containment, pre-expired deadlines, load shedding, serial fallback
// (bit-identity preserved), the per-backend circuit breaker, the
// stuck-worker watchdog, shutdown races, and a seeded chaos run that
// checks the exactly-once status accounting end to end.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "cdg/parser.h"
#include "grammars/toy_grammar.h"
#include "obs/metrics.h"
#include "parsec/backend.h"
#include "resil/fault_plan.h"
#include "serve/parse_service.h"

namespace {

using namespace parsec;
using namespace std::chrono_literals;
using resil::FaultPlan;
using resil::FaultSpec;
using resil::ScopedFaultPlan;
using serve::ParseRequest;
using serve::ParseResponse;
using serve::ParseService;
using serve::RequestStatus;

ParseService::Options small_service(int threads) {
  ParseService::Options opt;
  opt.threads = threads;
  opt.queue_capacity = 64;
  return opt;
}

/// Reads one counter sample out of Prometheus exposition text.
double scraped_value(const std::string& text, const std::string& sample) {
  const std::string needle = sample + " ";
  const auto pos = text.find(needle);
  if (pos == std::string::npos) return -1.0;
  return std::stod(text.substr(pos + needle.size()));
}

TEST(ParseServiceResilience, UnknownWordIsBadRequestNotACrash) {
  auto bundle = grammars::make_toy_grammar();
  ParseService::Options opt = small_service(2);
  opt.lexicon = &bundle.lexicon;
  ParseService service(bundle.grammar, opt);
  ParseRequest req;
  req.words = {"The", "flurble", "runs"};
  const ParseResponse resp = service.submit(std::move(req)).get();
  EXPECT_EQ(resp.status, RequestStatus::BadRequest);
  EXPECT_FALSE(resp.accepted);
  EXPECT_NE(resp.error.find("flurble"), std::string::npos) << resp.error;
  EXPECT_EQ(service.stats().bad_requests, 1u);

  // The service is still healthy: a good request right after parses.
  ParseRequest good;
  good.words = {"The", "program", "runs"};
  const ParseResponse ok = service.submit(std::move(good)).get();
  EXPECT_EQ(ok.status, RequestStatus::Ok);
  EXPECT_TRUE(ok.accepted);
}

TEST(ParseServiceResilience, EmptySentenceIsBadRequest) {
  auto bundle = grammars::make_toy_grammar();
  ParseService service(bundle.grammar, small_service(2));
  ParseRequest req;  // empty sentence, no words
  const ParseResponse resp = service.submit(std::move(req)).get();
  EXPECT_EQ(resp.status, RequestStatus::BadRequest);
  EXPECT_NE(resp.error.find("empty sentence"), std::string::npos)
      << resp.error;
}

TEST(ParseServiceResilience, RawWordsWithoutLexiconIsBadRequest) {
  auto bundle = grammars::make_toy_grammar();
  ParseService service(bundle.grammar, small_service(1));
  ParseRequest req;
  req.words = {"The", "program", "runs"};
  const ParseResponse resp = service.submit(std::move(req)).get();
  EXPECT_EQ(resp.status, RequestStatus::BadRequest);
  EXPECT_NE(resp.error.find("lexicon"), std::string::npos);
}

TEST(ParseServiceResilience, PreExpiredDeadlineShortCircuitsAtSubmit) {
  auto bundle = grammars::make_toy_grammar();
  obs::Registry registry;
  ParseService::Options opt = small_service(2);
  opt.metrics = &registry;
  ParseService service(bundle.grammar, opt);
  std::vector<ParseRequest> reqs;
  for (int i = 0; i < 8; ++i) {
    ParseRequest r;
    r.sentence = bundle.tag("The program runs");
    r.deadline = -1ms;  // expired before submission
    reqs.push_back(std::move(r));
  }
  const auto responses = service.parse_batch(std::move(reqs));
  for (const auto& r : responses) {
    EXPECT_EQ(r.status, RequestStatus::Timeout);
    EXPECT_EQ(r.worker, -1);  // never dequeued
  }
  const serve::ServiceStats s = service.stats();
  EXPECT_EQ(s.submitted, 8u);
  EXPECT_EQ(s.timeouts, 8u);
  // No backend ran: the whole batch was answered at submit.
  for (std::size_t b = 0; b < engine::kNumBackends; ++b)
    EXPECT_EQ(s.backends[b].requests, 0u) << b;
  EXPECT_EQ(scraped_value(service.metrics_text(),
                          "parsec_serve_requests_total{status=\"timeout\"}"),
            8.0);
}

TEST(ParseServiceResilience, SheddingAnswersOverloadedInsteadOfBlocking) {
  auto bundle = grammars::make_toy_grammar();
  // One slow worker, a two-slot queue, and a burst: with shed_load the
  // overflow is answered Overloaded immediately instead of blocking the
  // submitter.
  FaultPlan plan;
  FaultSpec latency;
  latency.every_nth = 1;
  latency.param = 0.01;  // 10ms per engine checkpoint
  plan.arm("engine.latency", latency);
  ScopedFaultPlan scope(plan);

  ParseService::Options opt = small_service(1);
  opt.queue_capacity = 2;
  opt.shed_load = true;
  ParseService service(bundle.grammar, opt);
  std::vector<ParseRequest> reqs;
  for (int i = 0; i < 16; ++i) {
    ParseRequest r;
    r.sentence = bundle.tag("The program runs");
    reqs.push_back(std::move(r));
  }
  const auto responses = service.parse_batch(std::move(reqs));
  int ok = 0, shed = 0;
  for (const auto& r : responses) {
    if (r.status == RequestStatus::Ok) ++ok;
    if (r.status == RequestStatus::Overloaded) ++shed;
  }
  EXPECT_EQ(ok + shed, 16);
  EXPECT_GE(shed, 1);
  EXPECT_EQ(service.stats().overloaded, static_cast<std::uint64_t>(shed));
}

TEST(ParseServiceResilience, SerialFallbackPreservesBitIdentity) {
  auto bundle = grammars::make_toy_grammar();
  // Reference fixpoint from a plain serial parse.
  cdg::SequentialParser seq(bundle.grammar);
  cdg::Network net = seq.make_network(bundle.tag("The program runs"));
  seq.parse(net);
  std::vector<util::DynBitset> reference;
  for (int r = 0; r < net.num_roles(); ++r)
    reference.emplace_back(net.domain(r));

  // Every MasPar power-on check fails: the maspar backend hard-faults,
  // and the service retries on Serial.
  FaultPlan plan;
  FaultSpec dead;
  dead.every_nth = 1;
  plan.arm("maspar.dead_pe", dead);
  ScopedFaultPlan scope(plan);

  ParseService::Options opt = small_service(1);
  opt.enable_breaker = false;  // isolate the fallback path
  ParseService service(bundle.grammar, opt);
  ParseRequest req;
  req.sentence = bundle.tag("The program runs");
  req.backend = engine::Backend::Maspar;
  req.capture_domains = true;
  const ParseResponse resp = service.submit(std::move(req)).get();
  EXPECT_EQ(resp.status, RequestStatus::Ok);
  EXPECT_TRUE(resp.accepted);
  EXPECT_TRUE(resp.degraded);
  EXPECT_EQ(resp.served_backend, engine::Backend::Serial);
  EXPECT_EQ(resp.domains_hash, engine::hash_domains(reference));
  ASSERT_EQ(resp.domains.size(), reference.size());
  for (std::size_t r = 0; r < reference.size(); ++r)
    EXPECT_EQ(resp.domains[r], reference[r]) << "role " << r;

  const serve::ServiceStats s = service.stats();
  EXPECT_EQ(s.fallback_retries, 1u);
  EXPECT_EQ(s.fallback_ok, 1u);
  // Both attempts are visible in the engine family: the maspar attempt
  // faulted, the serial one accepted.
  EXPECT_EQ(
      s.backends[static_cast<std::size_t>(engine::Backend::Maspar)].faulted,
      1u);
  EXPECT_EQ(
      s.backends[static_cast<std::size_t>(engine::Backend::Serial)].accepted,
      1u);
}

TEST(ParseServiceResilience, FaultWithoutRetryIsFaulted) {
  auto bundle = grammars::make_toy_grammar();
  FaultPlan plan;
  FaultSpec dead;
  dead.every_nth = 1;
  plan.arm("maspar.dead_pe", dead);
  ScopedFaultPlan scope(plan);

  ParseService::Options opt = small_service(1);
  opt.retry_serial = false;
  opt.enable_breaker = false;
  ParseService service(bundle.grammar, opt);
  ParseRequest req;
  req.sentence = bundle.tag("The program runs");
  req.backend = engine::Backend::Maspar;
  const ParseResponse resp = service.submit(std::move(req)).get();
  EXPECT_EQ(resp.status, RequestStatus::Faulted);
  EXPECT_FALSE(resp.error.empty());
  EXPECT_EQ(service.stats().faulted, 1u);
}

TEST(ParseServiceResilience, BreakerTripsAndReroutesToSerial) {
  auto bundle = grammars::make_toy_grammar();
  FaultPlan plan;
  FaultSpec dead;
  dead.every_nth = 1;
  plan.arm("maspar.dead_pe", dead);
  ScopedFaultPlan scope(plan);

  ParseService::Options opt = small_service(2);
  opt.breaker.trip_after = 2;
  opt.breaker.cooldown = 10s;  // stays open for the whole test
  ParseService service(bundle.grammar, opt);
  for (int i = 0; i < 5; ++i) {
    ParseRequest req;
    req.sentence = bundle.tag("The program runs");
    req.backend = engine::Backend::Maspar;
    const ParseResponse resp = service.submit(std::move(req)).get();
    // Faulted attempts fall back to Serial; once the breaker is open
    // the sick backend is not even tried.
    EXPECT_EQ(resp.status, RequestStatus::Ok) << i;
    EXPECT_TRUE(resp.degraded) << i;
    EXPECT_EQ(resp.served_backend, engine::Backend::Serial) << i;
  }
  const serve::ServiceStats s = service.stats();
  EXPECT_EQ(s.breaker_trips, 1u);
  EXPECT_EQ(s.fallback_retries, 2u);  // only the pre-trip faults retried
  EXPECT_EQ(s.breaker_rerouted, 3u);  // the rest skipped maspar entirely
  EXPECT_EQ(
      s.backends[static_cast<std::size_t>(engine::Backend::Maspar)].requests,
      2u);
}

TEST(ParseServiceResilience, BreakerHalfOpenProbeRecovers) {
  auto bundle = grammars::make_toy_grammar();
  // One transient fault: the first arena growth fails, everything after
  // succeeds — the breaker must recover through its half-open probe.
  FaultPlan plan;
  FaultSpec alloc;
  alloc.every_nth = 1;
  alloc.max_fires = 1;
  plan.arm("arena.alloc", alloc);
  ScopedFaultPlan scope(plan);

  ParseService::Options opt = small_service(1);
  opt.breaker.trip_after = 1;
  opt.breaker.cooldown = 50ms;
  ParseService service(bundle.grammar, opt);

  auto one = [&](RequestStatus want_status, engine::Backend want_served,
                 bool want_degraded) {
    ParseRequest req;
    req.sentence = bundle.tag("The program runs");
    req.backend = engine::Backend::Pram;
    const ParseResponse resp = service.submit(std::move(req)).get();
    EXPECT_EQ(resp.status, want_status);
    EXPECT_EQ(resp.served_backend, want_served);
    EXPECT_EQ(resp.degraded, want_degraded);
  };
  // 1: transient fault -> trip -> serial fallback.
  one(RequestStatus::Ok, engine::Backend::Serial, true);
  // 2: breaker open -> rerouted without trying pram.
  one(RequestStatus::Ok, engine::Backend::Serial, true);
  std::this_thread::sleep_for(80ms);
  // 3: cooldown elapsed -> half-open probe -> pram is healthy again.
  one(RequestStatus::Ok, engine::Backend::Pram, false);
  // 4: breaker closed, traffic flows normally.
  one(RequestStatus::Ok, engine::Backend::Pram, false);
  EXPECT_EQ(service.stats().breaker_trips, 1u);
}

TEST(ParseServiceResilience, WatchdogCancelsAStuckWorker) {
  auto bundle = grammars::make_toy_grammar();
  // The first engine checkpoint hangs for up to 10s; the watchdog must
  // reclaim the worker long before that bound.
  FaultPlan plan;
  FaultSpec hang;
  hang.every_nth = 1;
  hang.max_fires = 1;
  hang.param = 10.0;
  plan.arm("engine.hang", hang);
  ScopedFaultPlan scope(plan);

  ParseService::Options opt = small_service(1);
  opt.retry_serial = false;
  opt.enable_breaker = false;
  opt.watchdog_stall = 100ms;
  opt.watchdog_interval = 10ms;
  ParseService service(bundle.grammar, opt);
  ParseRequest req;
  req.sentence = bundle.tag("The program runs");
  const auto t0 = std::chrono::steady_clock::now();
  const ParseResponse resp = service.submit(std::move(req)).get();
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(resp.status, RequestStatus::Faulted);
  EXPECT_NE(resp.error.find("watchdog"), std::string::npos) << resp.error;
  EXPECT_LT(waited, 5.0);  // reclaimed at ~100ms, not the 10s hang bound
  EXPECT_EQ(service.stats().watchdog_stalls, 1u);
}

TEST(ParseServiceShutdownRace, ConcurrentSubmitAndShutdown) {
  auto bundle = grammars::make_toy_grammar();
  auto service =
      std::make_unique<ParseService>(bundle.grammar, small_service(2));
  std::atomic<int> resolved{0};
  std::vector<std::thread> submitters;
  std::atomic<bool> go{false};
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < 32; ++i) {
        ParseRequest r;
        r.sentence = bundle.tag("The program runs");
        const ParseResponse resp = service->submit(std::move(r)).get();
        // Every future resolves with a structured status.
        EXPECT_TRUE(resp.status == RequestStatus::Ok ||
                    resp.status == RequestStatus::ShuttingDown)
            << static_cast<int>(resp.status);
        resolved.fetch_add(1);
      }
    });
  }
  go.store(true);
  std::this_thread::sleep_for(1ms);
  service->shutdown();  // races the submitters
  for (auto& t : submitters) t.join();
  EXPECT_EQ(resolved.load(), 4 * 32);
}

TEST(ParseServiceShutdownRace, MidCallbackShutdownInvokesEveryCallback) {
  auto bundle = grammars::make_toy_grammar();
  std::atomic<int> called{0};
  {
    ParseService service(bundle.grammar, small_service(2));
    for (int i = 0; i < 16; ++i) {
      ParseRequest r;
      r.sentence = bundle.tag("The program runs");
      service.submit(std::move(r),
                     [&](ParseResponse) { called.fetch_add(1); });
    }
    service.shutdown();  // drain-then-join while callbacks may be running
  }
  EXPECT_EQ(called.load(), 16);
}

TEST(ParseServiceShutdownRace, DestructorWhileQueuedResolvesEverything) {
  auto bundle = grammars::make_toy_grammar();
  std::vector<std::future<ParseResponse>> futures;
  {
    ParseService service(bundle.grammar, small_service(1));
    for (int i = 0; i < 32; ++i) {
      ParseRequest r;
      r.sentence = bundle.tag("The program runs");
      futures.push_back(service.submit(std::move(r)));
    }
    // Destructor runs with most of the batch still queued.
  }
  for (auto& f : futures) {
    const ParseResponse resp = f.get();
    EXPECT_TRUE(resp.status == RequestStatus::Ok ||
                resp.status == RequestStatus::ShuttingDown);
  }
}

TEST(ParseServiceChaos, SeededChaosRunAccountsEveryRequestExactlyOnce) {
  auto bundle = grammars::make_toy_grammar();
  const char* texts[] = {"The program runs", "A dog halts",
                         "program The runs"};
  // Reference hashes: the serial fixpoint per sentence shape.
  cdg::SequentialParser seq(bundle.grammar);
  std::uint64_t reference[3];
  for (int i = 0; i < 3; ++i) {
    cdg::Network net = seq.make_network(bundle.tag(texts[i]));
    seq.parse(net);
    std::vector<util::DynBitset> domains;
    for (int r = 0; r < net.num_roles(); ++r)
      domains.emplace_back(net.domain(r));
    reference[i] = engine::hash_domains(domains);
  }

  FaultPlan plan(2026);
  FaultSpec alloc;
  alloc.probability = 0.02;
  plan.arm("arena.alloc", alloc);
  FaultSpec router;
  router.probability = 0.01;
  plan.arm("maspar.router", router);
  FaultSpec dead;
  dead.probability = 0.0005;  // a few dead PEs per machine: remap, not fault
  plan.arm("maspar.dead_pe", dead);
  FaultSpec latency;
  latency.probability = 0.01;
  latency.param = 0.0;
  plan.arm("engine.latency", latency);
  ScopedFaultPlan scope(plan);

  obs::Registry registry;
  ParseService::Options opt = small_service(4);
  opt.metrics = &registry;
  opt.watchdog_stall = 2s;  // active but far above normal latency
  ParseService service(bundle.grammar, opt);

  const int kRequests = 500;
  std::vector<ParseRequest> reqs;
  std::vector<int> shape;
  for (int i = 0; i < kRequests; ++i) {
    ParseRequest r;
    const int which = i % 3;
    r.sentence = bundle.tag(texts[which]);
    r.backend = engine::kAllBackends[static_cast<std::size_t>(i) %
                                     engine::kNumBackends];
    shape.push_back(which);
    reqs.push_back(std::move(r));
  }
  const auto responses = service.parse_batch(std::move(reqs));
  ASSERT_EQ(responses.size(), static_cast<std::size_t>(kRequests));

  std::uint64_t by_status[serve::kNumRequestStatuses] = {};
  for (int i = 0; i < kRequests; ++i) {
    const ParseResponse& r = responses[i];
    ++by_status[static_cast<std::size_t>(r.status)];
    // Structured outcomes only — no crash, no mystery status.
    ASSERT_TRUE(r.status == RequestStatus::Ok ||
                r.status == RequestStatus::Faulted)
        << static_cast<int>(r.status);
    // Degraded or not, an Ok response lands on the one true fixpoint.
    if (r.status == RequestStatus::Ok) {
      EXPECT_EQ(r.domains_hash,
                reference[static_cast<std::size_t>(shape[
                    static_cast<std::size_t>(i)])])
          << i;
    }
  }

  // Exactly-once accounting: the disjoint serve status counters sum to
  // the number of submitted requests, in the struct and in the scrape.
  const serve::ServiceStats s = service.stats();
  EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(kRequests));
  const std::string text = service.metrics_text();
  double scrape_sum = 0.0;
  for (const char* status :
       {"ok", "timeout", "shutting-down", "bad-request", "overloaded",
        "faulted"}) {
    const double v = scraped_value(
        text, std::string("parsec_serve_requests_total{status=\"") + status +
                  "\"}");
    ASSERT_GE(v, 0.0) << status;
    scrape_sum += v;
  }
  EXPECT_EQ(scrape_sum, static_cast<double>(kRequests));
  EXPECT_EQ(by_status[static_cast<std::size_t>(RequestStatus::Ok)] +
                by_status[static_cast<std::size_t>(RequestStatus::Faulted)],
            static_cast<std::uint64_t>(kRequests));
  // The plan actually fired (otherwise this test degenerates to a
  // plain throughput run).
  EXPECT_GT(plan.total_fires(), 0u);
}

}  // namespace
