// ResultCache: single-flight semantics at the unit level, plus the
// service-level cache contracts — a stampede of identical requests runs
// ONE engine parse, and cache hits are byte-identical to fresh parses
// (the engines' bit-determinism extended through the cache).  The
// threaded tests here run under TSan in CI (suite names match the
// sanitizer job's regex).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "grammars/english_grammar.h"
#include "grammars/sentence_gen.h"
#include "grammars/toy_grammar.h"
#include "obs/metrics.h"
#include "serve/parse_service.h"
#include "serve/result_cache.h"

namespace {

using namespace parsec;
using namespace std::chrono_literals;
using serve::ParseRequest;
using serve::ParseResponse;
using serve::ParseService;
using serve::RequestStatus;
using serve::ResultCache;

using Outcome = ResultCache::Outcome;

ResultCache::Key key_of(int tenant, std::uint64_t epoch, std::uint64_t h) {
  ResultCache::Key k;
  k.tenant = tenant;
  k.epoch = epoch;
  k.sentence_hash = h;
  return k;
}

ResultCache::Payload accepted_payload(std::uint64_t hash) {
  ResultCache::Payload p;
  p.accepted = true;
  p.alive_role_values = 7;
  p.domains_hash = hash;
  return p;
}

TEST(ResultCache, LeaderFillsThenHits) {
  ResultCache cache(8);
  const auto k = key_of(1, 1, 42);

  auto first = cache.acquire(k, /*need_domains=*/false);
  ASSERT_EQ(first.outcome, Outcome::MissLeader);
  ASSERT_TRUE(first.ticket);
  first.ticket.fill(accepted_payload(0xabc));

  auto second = cache.acquire(k, false);
  EXPECT_EQ(second.outcome, Outcome::Hit);
  ASSERT_TRUE(second.payload);
  EXPECT_TRUE(second.payload->accepted);
  EXPECT_EQ(second.payload->domains_hash, 0xabcu);

  auto s = cache.stats();
  EXPECT_EQ(s.lookups, 2u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
}

TEST(ResultCache, CoalescedWaiterGetsTheLeadersPayload) {
  ResultCache cache(8);
  const auto k = key_of(1, 1, 7);
  auto leader = cache.acquire(k, false);
  ASSERT_EQ(leader.outcome, Outcome::MissLeader);

  std::atomic<bool> waiting{false};
  ResultCache::LookupResult got;
  std::thread waiter([&] {
    waiting.store(true);
    got = cache.acquire(k, false);  // blocks on the in-flight leader
  });
  while (!waiting.load()) std::this_thread::yield();
  std::this_thread::sleep_for(5ms);
  leader.ticket.fill(accepted_payload(0x123));
  waiter.join();

  EXPECT_EQ(got.outcome, Outcome::Coalesced);
  ASSERT_TRUE(got.payload);
  EXPECT_EQ(got.payload->domains_hash, 0x123u);
  EXPECT_EQ(cache.stats().coalesced, 1u);
}

TEST(ResultCache, AbandonedLeaderPromotesAWaiter) {
  ResultCache cache(8);
  const auto k = key_of(1, 1, 9);
  auto leader = cache.acquire(k, false);
  ASSERT_EQ(leader.outcome, Outcome::MissLeader);

  std::atomic<bool> waiting{false};
  ResultCache::LookupResult got;
  std::thread waiter([&] {
    waiting.store(true);
    got = cache.acquire(k, false);
  });
  while (!waiting.load()) std::this_thread::yield();
  std::this_thread::sleep_for(5ms);
  leader.ticket.abandon();  // failed parse: slot released, waiter wakes
  waiter.join();

  // The waiter retried and became the new leader (a crash never wedges
  // the key).
  EXPECT_EQ(got.outcome, Outcome::MissLeader);
  EXPECT_TRUE(got.ticket);
  got.ticket.abandon();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ResultCache, WaiterDeadlineExpires) {
  ResultCache cache(8);
  const auto k = key_of(1, 1, 11);
  auto leader = cache.acquire(k, false);
  ASSERT_EQ(leader.outcome, Outcome::MissLeader);

  // Same thread: the wait honours the deadline instead of blocking on
  // a leader that never fills.
  auto late = cache.acquire(k, false,
                            std::chrono::steady_clock::now() + 10ms);
  EXPECT_EQ(late.outcome, Outcome::WaitExpired);
  EXPECT_FALSE(late.payload);
}

TEST(ResultCache, EvictsLeastRecentlyUsedBeyondCapacity) {
  ResultCache cache(2);
  for (std::uint64_t h : {1u, 2u, 3u}) {
    auto r = cache.acquire(key_of(1, 1, h), false);
    ASSERT_EQ(r.outcome, Outcome::MissLeader);
    r.ticket.fill(accepted_payload(h));
  }
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);

  // Key 1 was the LRU entry and is gone; 2 and 3 survive.
  auto r1 = cache.acquire(key_of(1, 1, 1), false);
  EXPECT_EQ(r1.outcome, Outcome::MissLeader);
  r1.ticket.abandon();
  EXPECT_EQ(cache.acquire(key_of(1, 1, 2), false).outcome, Outcome::Hit);
  EXPECT_EQ(cache.acquire(key_of(1, 1, 3), false).outcome, Outcome::Hit);
}

TEST(ResultCache, DomainlessEntryBypassesAndUpgrades) {
  ResultCache cache(8);
  const auto k = key_of(1, 1, 5);
  auto r = cache.acquire(k, false);
  ASSERT_EQ(r.outcome, Outcome::MissLeader);
  r.ticket.fill(accepted_payload(0x5));  // no domains captured

  // A caller that needs domains cannot be served this entry: it parses
  // fresh and upgrades the slot.
  auto ask = cache.acquire(k, /*need_domains=*/true);
  EXPECT_EQ(ask.outcome, Outcome::Bypass);
  ResultCache::Payload full = accepted_payload(0x5);
  full.has_domains = true;
  full.domains.resize(3);
  cache.put(k, std::move(full));

  auto again = cache.acquire(k, true);
  EXPECT_EQ(again.outcome, Outcome::Hit);
  ASSERT_TRUE(again.payload);
  EXPECT_TRUE(again.payload->has_domains);
  // Domain-less callers keep hitting it too.
  EXPECT_EQ(cache.acquire(k, false).outcome, Outcome::Hit);
}

TEST(ResultCache, InvalidateTenantDropsOnlyRetiredEpochs) {
  ResultCache cache(8);
  for (auto [t, e, h] : {std::tuple{1, 1u, 10u}, {1, 1u, 11u},
                         {1, 2u, 12u}, {2, 1u, 13u}}) {
    auto r = cache.acquire(key_of(t, e, h), false);
    ASSERT_EQ(r.outcome, Outcome::MissLeader);
    r.ticket.fill(accepted_payload(h));
  }
  cache.invalidate_tenant(1, /*before_epoch=*/2);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().invalidated, 2u);
  // Tenant 1's epoch-2 entry and tenant 2 entirely are untouched.
  EXPECT_EQ(cache.acquire(key_of(1, 2, 12), false).outcome, Outcome::Hit);
  EXPECT_EQ(cache.acquire(key_of(2, 1, 13), false).outcome, Outcome::Hit);
}

// ---------------------------------------------------------------------
// Service-level contracts.
// ---------------------------------------------------------------------

ParseService::Options cached_service(int threads) {
  ParseService::Options opt;
  opt.threads = threads;
  opt.queue_capacity = 128;
  opt.enable_result_cache = true;
  return opt;
}

// The headline single-flight property: N threads submitting the same
// sentence concurrently produce exactly ONE engine parse — everyone
// else coalesces onto it (or hits the entry it filled) and all N
// responses are bit-identical.  TSan-clean by construction.
TEST(ResultCacheService, StampedeRunsOneParse) {
  auto bundle = grammars::make_toy_grammar();
  ParseService service(bundle.grammar, cached_service(4));

  constexpr int kThreads = 16;
  std::vector<ParseResponse> responses(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i)
      threads.emplace_back([&, i] {
        ParseRequest req;
        req.sentence = bundle.tag("The program runs");
        responses[i] = service.submit(std::move(req)).get();
      });
    for (auto& t : threads) t.join();
  }

  for (const auto& r : responses) {
    EXPECT_EQ(r.status, RequestStatus::Ok);
    EXPECT_TRUE(r.accepted);
    EXPECT_EQ(r.domains_hash, responses[0].domains_hash);
    EXPECT_EQ(r.alive_role_values, responses[0].alive_role_values);
  }
  const auto s = service.stats();
  EXPECT_EQ(s.cache.lookups, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(s.cache.misses, 1u) << "stampede must run exactly one parse";
  EXPECT_EQ(s.cache.hits + s.cache.coalesced,
            static_cast<std::uint64_t>(kThreads - 1));
  // Exactly the non-leaders report being served from the cache.
  int cached = 0, coalesced = 0;
  for (const auto& r : responses) {
    cached += r.cached;
    coalesced += r.coalesced;
  }
  EXPECT_EQ(cached, kThreads - 1);
  EXPECT_EQ(coalesced, static_cast<int>(s.cache.coalesced));
}

// Bit-identity fuzz: over a generated corpus, a cache hit must be
// byte-identical to the miss that populated it AND to an uncached
// service's response — accepted flag, alive counts, domains hash, and
// the full domain bitsets.
TEST(ResultCacheService, HitsAreBitIdenticalToMisses) {
  auto bundle = grammars::make_english_grammar();
  auto copt = cached_service(2);
  copt.lexicon = &bundle.lexicon;
  ParseService cached(bundle.grammar, copt);
  ParseService::Options uopt;
  uopt.threads = 2;
  uopt.lexicon = &bundle.lexicon;
  ParseService uncached(bundle.grammar, uopt);

  grammars::SentenceGenerator gen(bundle, 2026);
  const auto& backends = engine::kAllBackends;
  constexpr std::size_t kBackends = engine::kNumBackends;
  std::set<std::vector<std::string>> seen;
  for (int i = 0; i < 24; ++i) {
    // Unique sentences only: a repeat would turn the expected miss
    // into a hit and skew the counters below.
    std::vector<std::string> words;
    do {
      words = gen.generate(3 + i % 7);
    } while (!seen.insert(words).second);
    auto make = [&](engine::Backend b) {
      ParseRequest req;
      req.words = words;
      req.backend = b;
      req.capture_domains = true;
      return req;
    };
    // Miss (leader) on one backend, hit requested under another: the
    // cached payload must still match, by the engines' determinism.
    const auto miss = cached.submit(make(backends[i % kBackends])).get();
    const auto hit = cached.submit(make(backends[(i + 1) % kBackends])).get();
    const auto fresh =
        uncached.submit(make(backends[(i + 2) % kBackends])).get();

    ASSERT_EQ(miss.status, RequestStatus::Ok) << "sentence " << i;
    ASSERT_EQ(hit.status, RequestStatus::Ok);
    ASSERT_EQ(fresh.status, RequestStatus::Ok);
    EXPECT_FALSE(miss.cached);
    EXPECT_TRUE(hit.cached);
    EXPECT_FALSE(fresh.cached);
    EXPECT_EQ(hit.accepted, miss.accepted);
    EXPECT_EQ(hit.alive_role_values, miss.alive_role_values);
    EXPECT_EQ(hit.domains_hash, miss.domains_hash);
    EXPECT_EQ(hit.domains, miss.domains);
    EXPECT_EQ(fresh.accepted, miss.accepted);
    EXPECT_EQ(fresh.alive_role_values, miss.alive_role_values);
    EXPECT_EQ(fresh.domains_hash, miss.domains_hash);
    EXPECT_EQ(fresh.domains, miss.domains);
    // A cache hit reports which backend populated the entry.
    EXPECT_EQ(hit.served_backend, miss.served_backend);
  }
  const auto s = cached.stats();
  EXPECT_EQ(s.cache.hits, 24u);
  EXPECT_EQ(s.cache.misses, 24u);
}

// Distinct sentences never collide: every unique input is its own miss.
TEST(ResultCacheService, DistinctSentencesMissIndependently) {
  auto bundle = grammars::make_english_grammar();
  auto opt = cached_service(2);
  opt.lexicon = &bundle.lexicon;
  ParseService service(bundle.grammar, opt);
  grammars::SentenceGenerator gen(bundle, 7);

  std::set<std::uint64_t> hashes;
  std::vector<ParseRequest> reqs;
  for (int i = 0; i < 12; ++i) {
    ParseRequest req;
    req.words = gen.generate(4 + i % 5);
    reqs.push_back(req);
  }
  auto responses = service.parse_batch(std::move(reqs));
  for (const auto& r : responses) {
    ASSERT_EQ(r.status, RequestStatus::Ok);
    hashes.insert(r.domains_hash);
  }
  const auto s = service.stats();
  EXPECT_EQ(s.cache.lookups, 12u);
  // Generated sentences may repeat; misses == number of unique inputs.
  EXPECT_EQ(s.cache.hits + s.cache.coalesced + s.cache.misses, 12u);
  EXPECT_GE(s.cache.misses, hashes.size());
}

}  // namespace
