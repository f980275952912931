// ParseService SoA batching (Options::enable_batching): grouped
// same-(grammar, length) Serial requests are parsed together through
// the lane batcher, answers stay in input order and bit-identical to
// an unbatched service, ineligible requests fall back to the ordinary
// path, and the occupancy counters account every batched request.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "grammars/english_grammar.h"
#include "grammars/sentence_gen.h"
#include "grammars/toy_grammar.h"
#include "obs/metrics.h"
#include "serve/parse_service.h"

namespace {

using namespace parsec;
using namespace std::chrono_literals;
using serve::ParseRequest;
using serve::ParseResponse;
using serve::ParseService;
using serve::RequestStatus;

TEST(ServeBatching, BatchedResponsesBitIdenticalToUnbatchedService) {
  auto bundle = grammars::make_english_grammar();
  grammars::SentenceGenerator gen(bundle, 20260807);
  // Same-shape heavy workload: 3 lengths, 18 sentences, so the batched
  // service forms multi-lane groups.
  std::vector<cdg::Sentence> ws;
  for (int i = 0; i < 18; ++i) ws.push_back(gen.generate_sentence(4 + i % 3));

  auto make_reqs = [&ws] {
    std::vector<ParseRequest> reqs;
    for (const auto& s : ws) {
      ParseRequest r;
      r.sentence = s;
      reqs.push_back(std::move(r));
    }
    return reqs;
  };

  obs::Registry plain_reg, batched_reg;
  ParseService::Options plain_opt;
  plain_opt.threads = 2;
  plain_opt.metrics = &plain_reg;
  ParseService plain(bundle.grammar, plain_opt);
  const auto ref = plain.parse_batch(make_reqs());

  ParseService::Options batch_opt;
  batch_opt.threads = 2;
  batch_opt.enable_batching = true;
  batch_opt.metrics = &batched_reg;
  ParseService batched(bundle.grammar, batch_opt);
  const auto got = batched.parse_batch(make_reqs());

  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(got[i].status, RequestStatus::Ok) << i;
    EXPECT_EQ(got[i].accepted, ref[i].accepted) << i;
    EXPECT_EQ(got[i].domains_hash, ref[i].domains_hash) << i;
    EXPECT_EQ(got[i].alive_role_values, ref[i].alive_role_values) << i;
    EXPECT_EQ(got[i].served_backend, engine::Backend::Serial) << i;
  }

  // 18 requests in 3 same-length groups of 6: every request batched,
  // ceil(6/8) = 1 batch per group.
  const auto stats = batched.stats();
  EXPECT_EQ(stats.batched_requests, 18u);
  EXPECT_EQ(stats.batches, 3u);
  EXPECT_EQ(stats.completed, 18u);
  const auto plain_stats = plain.stats();
  EXPECT_EQ(plain_stats.batches, 0u);
  EXPECT_EQ(plain_stats.batched_requests, 0u);
  // The registry carries the same occupancy counters.
  const std::string text = batched.metrics_text();
  EXPECT_NE(text.find("parsec_serve_batches_total 3"), std::string::npos)
      << text;
  EXPECT_NE(text.find("parsec_serve_batched_requests_total 18"),
            std::string::npos)
      << text;
}

TEST(ServeBatching, GroupsSliceIntoLaneSizedChunks) {
  auto bundle = grammars::make_toy_grammar();
  ParseService::Options opt;
  opt.threads = 2;
  opt.enable_batching = true;
  opt.min_batch_lanes = 1;  // batch even the 3-lane tail chunk
  obs::Registry reg;
  opt.metrics = &reg;
  ParseService service(bundle.grammar, opt);
  // 11 same-length sentences -> one group -> ceil(11/8) = 2 batches.
  std::vector<ParseRequest> reqs;
  for (int i = 0; i < 11; ++i) {
    ParseRequest r;
    r.sentence = bundle.tag(i % 2 == 0 ? "The program runs"
                                       : "program The runs");
    reqs.push_back(std::move(r));
  }
  const auto responses = service.parse_batch(std::move(reqs));
  ASSERT_EQ(responses.size(), 11u);
  for (int i = 0; i < 11; ++i) {
    EXPECT_EQ(responses[static_cast<std::size_t>(i)].status,
              RequestStatus::Ok)
        << i;
    EXPECT_EQ(responses[static_cast<std::size_t>(i)].accepted, i % 2 == 0)
        << i;
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.batched_requests, 11u);
  EXPECT_EQ(stats.batches, 2u);
}

TEST(ServeBatching, IneligibleRequestsFallBackToPerRequestPath) {
  auto bundle = grammars::make_toy_grammar();
  ParseService::Options opt;
  opt.threads = 2;
  opt.enable_batching = true;
  opt.min_batch_lanes = 1;  // the eligible pair is only a 2-lane chunk
  obs::Registry reg;
  opt.metrics = &reg;
  opt.lexicon = &bundle.lexicon;
  ParseService service(bundle.grammar, opt);

  std::vector<ParseRequest> reqs;
  ParseRequest serial;  // eligible
  serial.sentence = bundle.tag("The program runs");
  reqs.push_back(serial);
  ParseRequest pram = serial;  // ineligible: non-Serial backend
  pram.backend = engine::Backend::Pram;
  reqs.push_back(pram);
  ParseRequest deadline = serial;  // ineligible: has a deadline
  deadline.deadline = 10s;
  reqs.push_back(deadline);
  ParseRequest raw;  // ineligible: raw words (worker-side tagging)
  raw.words = {"The", "program", "runs"};
  reqs.push_back(raw);
  reqs.push_back(serial);  // eligible, same shape as the first

  const auto responses = service.parse_batch(std::move(reqs));
  ASSERT_EQ(responses.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(responses[i].status, RequestStatus::Ok) << i;
    EXPECT_TRUE(responses[i].accepted) << i;
    EXPECT_EQ(responses[i].domains_hash, responses[0].domains_hash) << i;
  }
  EXPECT_EQ(responses[1].served_backend, engine::Backend::Pram);
  const auto stats = service.stats();
  EXPECT_EQ(stats.batched_requests, 2u);  // the two eligible ones
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.completed, 5u);
}

TEST(ServeBatching, CaptureDomainsHonoredPerRequestWithinABatch) {
  auto bundle = grammars::make_toy_grammar();
  ParseService::Options opt;
  opt.threads = 1;
  opt.enable_batching = true;
  opt.min_batch_lanes = 1;  // force the 2-lane chunk through the batcher
  obs::Registry reg;
  opt.metrics = &reg;
  ParseService service(bundle.grammar, opt);

  std::vector<ParseRequest> reqs(2);
  reqs[0].sentence = bundle.tag("The program runs");
  reqs[0].capture_domains = true;
  reqs[1].sentence = bundle.tag("a dog halts");
  const auto responses = service.parse_batch(std::move(reqs));
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_FALSE(responses[0].domains.empty());
  EXPECT_EQ(engine::hash_domains(responses[0].domains),
            responses[0].domains_hash);
  EXPECT_TRUE(responses[1].domains.empty());
  EXPECT_EQ(service.stats().batches, 1u);
}

// Thin tail chunks (below Options::min_batch_lanes) take the ordinary
// per-request path: a lockstep sweep costs nearly the same at any
// fill, so a 3-lane tail is cheaper unbatched.  Results are identical
// either way; only the occupancy accounting shows the split.
TEST(ServeBatching, ThinTailChunksFallBackPerRequest) {
  auto bundle = grammars::make_toy_grammar();
  ParseService::Options opt;
  opt.threads = 2;
  opt.enable_batching = true;  // min_batch_lanes stays at its default (4)
  obs::Registry reg;
  opt.metrics = &reg;
  ParseService service(bundle.grammar, opt);

  // One group of 11: an 8-lane chunk batches, the 3-lane tail (< 4)
  // falls back per-request.
  std::vector<ParseRequest> reqs;
  for (int i = 0; i < 11; ++i) {
    ParseRequest r;
    r.sentence = bundle.tag("The program runs");
    reqs.push_back(std::move(r));
  }
  const auto responses = service.parse_batch(std::move(reqs));
  ASSERT_EQ(responses.size(), 11u);
  for (const auto& r : responses) {
    EXPECT_EQ(r.status, RequestStatus::Ok);
    EXPECT_TRUE(r.accepted);
    EXPECT_EQ(r.domains_hash, responses[0].domains_hash);
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.batched_requests, 8u);
  EXPECT_EQ(stats.completed, 11u);
}

// Exactly-once status accounting holds on the batched path too: every
// submitted request lands in exactly one serve-status counter.
TEST(ServeBatching, StatusAccountingStaysExactlyOnce) {
  auto bundle = grammars::make_toy_grammar();
  ParseService::Options opt;
  opt.threads = 2;
  opt.enable_batching = true;
  obs::Registry reg;
  opt.metrics = &reg;
  ParseService service(bundle.grammar, opt);

  std::vector<ParseRequest> reqs;
  for (int i = 0; i < 9; ++i) {
    ParseRequest r;
    r.sentence = bundle.tag("The program runs");
    if (i == 4) r.grammar = "no-such-grammar";  // BadRequest at submit
    reqs.push_back(std::move(r));
  }
  const auto responses = service.parse_batch(std::move(reqs));
  std::size_t ok = 0, bad = 0;
  for (const auto& r : responses) {
    ok += r.status == RequestStatus::Ok;
    bad += r.status == RequestStatus::BadRequest;
  }
  EXPECT_EQ(ok, 8u);
  EXPECT_EQ(bad, 1u);
  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, 9u);
  EXPECT_EQ(stats.batched_requests, 8u);
  EXPECT_EQ(stats.bad_requests, 1u);
}

}  // namespace
