// ParseServer: loopback bit-identity against the in-process service,
// ping, garbage-frame rejection, drain-under-load, connection caps,
// and the net.accept / net.read fault-injection sites.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cdg/parser.h"
#include "grammars/english_grammar.h"
#include "grammars/sentence_gen.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "parsec/backend.h"
#include "resil/fault_plan.h"
#include "serve/grammar_registry.h"
#include "serve/parse_service.h"

namespace {

using namespace parsec;
using namespace std::chrono_literals;

struct Loopback {
  obs::Registry registry_metrics;
  serve::GrammarRegistry registry;
  std::optional<serve::ParseService> service;
  std::optional<net::ParseServer> server;

  explicit Loopback(net::ParseServer::Options nopt = {}, int threads = 2) {
    registry.publish("english", grammars::make_english_grammar());
    serve::ParseService::Options sopt;
    sopt.threads = threads;
    sopt.default_grammar = "english";
    sopt.metrics = &registry_metrics;
    service.emplace(registry, sopt);
    nopt.metrics = &registry_metrics;
    server.emplace(*service, nopt);
  }

  net::Client connect() {
    std::string err;
    auto c = net::Client::connect("127.0.0.1", server->port(), &err);
    EXPECT_TRUE(c.has_value()) << err;
    return std::move(*c);
  }
};

net::WireRequest wire_request(const std::vector<std::string>& words,
                              engine::Backend backend) {
  net::WireRequest req;
  req.grammar = "english";
  req.backend = backend;
  req.words = words;
  return req;
}

TEST(ParseServer, AnswersPing) {
  Loopback loop;
  net::Client client = loop.connect();
  std::string err;
  EXPECT_TRUE(client.ping(2000, &err)) << err;
  EXPECT_TRUE(client.ping(2000, &err)) << err;  // connection survives
}

// The acceptance gate: results over the wire are bit-identical
// (domains_hash AND captured domains) to the same request submitted
// in-process, on every backend, and both match the single-threaded
// serial reference.
TEST(ParseServer, LoopbackIsBitIdenticalToInProcessService) {
  Loopback loop;
  auto bundle = grammars::make_english_grammar();
  grammars::SentenceGenerator gen(bundle, 1992);
  cdg::SequentialParser seq(bundle.grammar);
  net::Client client = loop.connect();

  const engine::Backend backends[] = {
      engine::Backend::Serial, engine::Backend::Pram, engine::Backend::Maspar};
  for (int n = 4; n <= 12; n += 2) {
    const std::vector<std::string> words = gen.generate(n);

    cdg::Network ref_net = seq.make_network(bundle.lexicon.tag(words));
    seq.parse(ref_net);
    std::vector<util::DynBitset> ref_domains;
    for (int r = 0; r < ref_net.num_roles(); ++r)
      ref_domains.emplace_back(ref_net.domain(r));
    const std::uint64_t ref_hash = engine::hash_domains(ref_domains);

    for (engine::Backend backend : backends) {
      serve::ParseRequest preq;
      preq.words = words;
      preq.grammar = "english";
      preq.backend = backend;
      preq.capture_domains = true;
      const serve::ParseResponse inproc =
          loop.service->submit(std::move(preq)).get();
      ASSERT_EQ(inproc.status, serve::RequestStatus::Ok);

      net::WireRequest wreq = wire_request(words, backend);
      wreq.flags = net::kFlagCaptureDomains;
      net::WireResponse wresp;
      std::string err;
      ASSERT_TRUE(client.request(wreq, wresp, &err)) << err;
      ASSERT_EQ(wresp.status, serve::RequestStatus::Ok);

      EXPECT_EQ(wresp.domains_hash, inproc.domains_hash)
          << "backend " << engine::to_string(backend) << " n=" << n;
      EXPECT_EQ(wresp.domains_hash, ref_hash);
      EXPECT_EQ(wresp.accepted, inproc.accepted);
      EXPECT_EQ(wresp.alive_role_values, inproc.alive_role_values);
      ASSERT_EQ(wresp.domains.size(), inproc.domains.size());
      for (std::size_t d = 0; d < wresp.domains.size(); ++d) {
        ASSERT_EQ(wresp.domains[d].size(), inproc.domains[d].size());
        for (std::size_t b = 0; b < wresp.domains[d].size(); ++b)
          ASSERT_EQ(wresp.domains[d].test(b), inproc.domains[d].test(b));
      }
    }
  }
}

TEST(ParseServer, UnknownWordComesBackBadRequestNotDead) {
  Loopback loop;
  net::Client client = loop.connect();
  net::WireResponse resp;
  std::string err;
  ASSERT_TRUE(client.request(
      wire_request({"the", "xyzzy", "runs"}, engine::Backend::Serial), resp,
      &err))
      << err;
  EXPECT_EQ(resp.status, serve::RequestStatus::BadRequest);
  // Same connection still serves.
  ASSERT_TRUE(client.request(
      wire_request({"the", "dog", "runs"}, engine::Backend::Serial), resp,
      &err))
      << err;
  EXPECT_EQ(resp.status, serve::RequestStatus::Ok);
}

TEST(ParseServer, ShardIdStampsEveryResponse) {
  net::ParseServer::Options nopt;
  nopt.shard_id = 5;
  Loopback loop(nopt);
  net::Client client = loop.connect();
  net::WireResponse resp;
  std::string err;
  ASSERT_TRUE(client.request(
      wire_request({"the", "dog", "runs"}, engine::Backend::Serial), resp,
      &err));
  EXPECT_EQ(resp.shard, 5);
}

TEST(ParseServer, GarbageAndMalformedFramesAreRejectedWithoutCrashing) {
  Loopback loop;

  {  // raw garbage: no valid header, connection dropped, server alive
    std::string err;
    net::Socket s = net::tcp_connect("127.0.0.1", loop.server->port(), &err);
    ASSERT_TRUE(s.valid()) << err;
    const std::uint8_t garbage[] = {0xde, 0xad, 0xbe, 0xef, 0x00,
                                    0x01, 0x02, 0x03, 0x04, 0x05};
    ASSERT_TRUE(net::write_full(s, garbage, sizeof garbage, &err));
    net::Frame frame;
    net::DecodeStatus ds;
    EXPECT_FALSE(net::read_frame(s, frame, &ds, &err));  // closed on us
  }
  {  // valid header, lying payload: structured BadRequest, then close
    std::string err;
    net::Socket s = net::tcp_connect("127.0.0.1", loop.server->port(), &err);
    ASSERT_TRUE(s.valid()) << err;
    net::WireRequest req = wire_request({"a"}, engine::Backend::Serial);
    std::vector<std::uint8_t> frame_bytes;
    net::encode_request(req, frame_bytes);
    frame_bytes[net::kHeaderSize] = 1;  // reserved backend byte
    ASSERT_TRUE(net::write_full(s, frame_bytes.data(), frame_bytes.size(),
                                &err));
    net::Frame frame;
    net::DecodeStatus ds;
    ASSERT_TRUE(net::read_frame(s, frame, &ds, &err)) << err;
    net::WireResponse resp;
    ASSERT_EQ(net::decode_response(frame.payload.data(),
                                   frame.payload.size(), resp),
              net::DecodeStatus::Ok);
    EXPECT_EQ(resp.status, serve::RequestStatus::BadRequest);
    EXPECT_NE(resp.error.find("malformed"), std::string::npos);
  }
  // The server still serves new connections afterwards.
  net::Client client = loop.connect();
  std::string err;
  EXPECT_TRUE(client.ping(2000, &err)) << err;
  EXPECT_GE(loop.server->stats().frame_errors, 2u);
}

TEST(ParseServer, DrainFinishesInFlightAndRefusesNewConnections) {
  Loopback loop({}, /*threads=*/4);
  const int kThreads = 4;
  std::atomic<std::uint64_t> ok{0}, failed_after_drain{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&] {
      net::Client client = loop.connect();
      while (!go.load()) std::this_thread::yield();
      // Hammer until the drain cuts the connection; every response that
      // does come back must be a complete, well-formed Ok.
      for (int i = 0; i < 10000; ++i) {
        net::WireResponse resp;
        std::string err;
        if (!client.request(
                wire_request({"the", "dog", "runs"}, engine::Backend::Serial),
                resp, &err)) {
          failed_after_drain.fetch_add(1);
          break;
        }
        EXPECT_EQ(resp.status, serve::RequestStatus::Ok);
        ok.fetch_add(1);
      }
    });
  }
  go.store(true);
  std::this_thread::sleep_for(50ms);
  loop.server->drain();
  for (auto& t : clients) t.join();

  EXPECT_GT(ok.load(), 0u);
  // Every request the server read was answered: its counter matches the
  // client-side success count (nothing was read-then-dropped).
  EXPECT_EQ(loop.server->stats().requests, ok.load());
  EXPECT_GT(loop.server->stats().drain_seconds, 0.0);

  // The listener is closed: new connections are refused.
  std::string err;
  EXPECT_FALSE(
      net::Client::connect("127.0.0.1", loop.server->port(), &err).has_value());
}

TEST(ParseServer, InjectedReadFaultDropsConnectionNotServer) {
  resil::FaultPlan plan(7);
  resil::FaultSpec spec;
  spec.every_nth = 1;
  spec.max_fires = 1;
  plan.arm("net.read", spec);

  Loopback loop;
  {
    resil::ScopedFaultPlan scope(plan);
    // Raw socket so the client performs no reads of its own until the
    // server's read has consumed the single armed fire (the site is
    // process-wide and both ends live in this process).
    std::string err;
    net::Socket s = net::tcp_connect("127.0.0.1", loop.server->port(), &err);
    ASSERT_TRUE(s.valid()) << err;
    std::vector<std::uint8_t> frame_bytes;
    net::encode_request(
        wire_request({"the", "dog", "runs"}, engine::Backend::Serial),
        frame_bytes);
    ASSERT_TRUE(net::write_full(s, frame_bytes.data(), frame_bytes.size(),
                                &err));
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (loop.server->stats().injected_faults == 0 &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(10ms);
    net::Frame frame;
    net::DecodeStatus ds;
    EXPECT_FALSE(net::read_frame(s, frame, &ds, &err));  // server died on us
  }
  // Reconnect: the server survived and the fault was accounted.
  net::Client again = loop.connect();
  std::string err;
  EXPECT_TRUE(again.ping(2000, &err)) << err;
  EXPECT_EQ(loop.server->stats().injected_faults, 1u);
}

// satellite (b): a half-dead client (connected, silent) is reaped
// after idle_timeout_ms instead of pinning a connection slot forever;
// an ACTIVE connection is never reaped.
TEST(ParseServer, IdleConnectionsAreReaped) {
  net::ParseServer::Options nopt;
  nopt.idle_timeout_ms = 150;
  nopt.poll_interval_ms = 20;
  Loopback loop(nopt);

  // Active connection: keep pinging past several idle windows.
  net::Client active = loop.connect();
  // Idle connection: connect and go silent.
  net::Client idle = loop.connect();

  std::string err;
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (loop.server->stats().idle_closed == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    EXPECT_TRUE(active.ping(2000, &err)) << err;
    std::this_thread::sleep_for(30ms);
  }
  EXPECT_EQ(loop.server->stats().idle_closed, 1u);

  // The active connection survived the reaper...
  EXPECT_TRUE(active.ping(2000, &err)) << err;
  // ...and the idle one is actually dead: its next request fails.
  net::WireResponse resp;
  EXPECT_FALSE(idle.request(
      wire_request({"the", "dog", "runs"}, engine::Backend::Serial), resp,
      &err));
}

// Tentpole part 2 over the wire: two requests with the same
// idempotency key execute the parse ONCE — the retry replays from the
// shard's idempotency window, flagged cached, bit-identical.
TEST(ParseServer, SameIdempotencyKeyNeverDoubleExecutes) {
  Loopback loop;
  net::Client client = loop.connect();

  net::WireRequest req =
      wire_request({"the", "dog", "runs"}, engine::Backend::Serial);
  req.idempotency_key = 0xabcdef01ull;
  net::WireResponse first, second;
  std::string err;
  ASSERT_TRUE(client.request(req, first, &err)) << err;
  ASSERT_EQ(first.status, serve::RequestStatus::Ok);
  EXPECT_EQ(first.idempotency_key, 0xabcdef01ull) << "key echo missing";
  EXPECT_FALSE(first.cached);

  ASSERT_TRUE(client.request(req, second, &err)) << err;
  ASSERT_EQ(second.status, serve::RequestStatus::Ok);
  EXPECT_TRUE(second.cached) << "retry re-executed the parse";
  EXPECT_EQ(second.domains_hash, first.domains_hash);
  EXPECT_EQ(second.alive_role_values, first.alive_role_values);

  // One MissLeader (the execution) + one Hit (the replay): the engine
  // ran exactly once for this key.
  const auto sstats = loop.service->stats();
  EXPECT_EQ(sstats.idempotency.hits, 1u);
  EXPECT_EQ(sstats.idempotency.misses, 1u);
}

TEST(ParseServer, InjectedAcceptFaultDropsOneConnection) {
  resil::FaultPlan plan(7);
  resil::FaultSpec spec;
  spec.every_nth = 1;
  spec.max_fires = 1;
  plan.arm("net.accept", spec);

  Loopback loop;
  {
    resil::ScopedFaultPlan scope(plan);
    // The TCP handshake completes (the kernel accepted), but the server
    // drops the connection at accept: the first request fails.
    std::string err;
    auto doomed = net::Client::connect("127.0.0.1", loop.server->port(), &err);
    if (doomed) {
      net::WireResponse resp;
      EXPECT_FALSE(doomed->request(
          wire_request({"the", "dog", "runs"}, engine::Backend::Serial), resp,
          &err));
    }
  }
  net::Client again = loop.connect();
  std::string err;
  EXPECT_TRUE(again.ping(2000, &err)) << err;
  EXPECT_EQ(loop.server->stats().injected_faults, 1u);
}

}  // namespace
