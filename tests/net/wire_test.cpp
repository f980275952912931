// Wire protocol: round-trips, the golden hexdump pinned in
// docs/SERVING.md, and rejection of every malformed-frame class
// (truncated, oversized, bad magic/version/type, lying payloads)
// without crashing — the decoder is the trust boundary.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "net/wire.h"
#include "parsec/backend.h"
#include "util/bitset.h"

namespace {

using namespace parsec;
using namespace parsec::net;

WireRequest sample_request() {
  WireRequest req;
  req.grammar = "english";
  req.backend = engine::Backend::Maspar;
  req.deadline_ms = 250;
  req.flags = kFlagCaptureDomains;
  req.idempotency_key = 0xdeadbeefcafe1234ull;
  req.words = {"the", "quick", "dog", "runs"};
  return req;
}

TEST(WireProtocol, RequestRoundTrips) {
  const WireRequest req = sample_request();
  std::vector<std::uint8_t> frame;
  ASSERT_TRUE(encode_request(req, frame));

  FrameHeader header;
  ASSERT_EQ(decode_header(frame.data(), frame.size(), header),
            DecodeStatus::Ok);
  EXPECT_EQ(header.type, FrameType::ParseRequest);
  ASSERT_EQ(frame.size(), kHeaderSize + header.payload_len);

  WireRequest back;
  ASSERT_EQ(decode_request(frame.data() + kHeaderSize, header.payload_len,
                           back),
            DecodeStatus::Ok);
  EXPECT_EQ(back.grammar, req.grammar);
  EXPECT_EQ(back.backend, req.backend);
  EXPECT_EQ(back.deadline_ms, req.deadline_ms);
  EXPECT_EQ(back.flags, req.flags);
  EXPECT_EQ(back.idempotency_key, req.idempotency_key);
  EXPECT_EQ(back.words, req.words);
}

TEST(WireProtocol, ResponseRoundTripsWithDomains) {
  WireResponse resp;
  resp.status = serve::RequestStatus::Ok;
  resp.served_backend = engine::Backend::Serial;
  resp.accepted = true;
  resp.cached = true;
  resp.degraded = true;
  resp.shard = 3;
  resp.idempotency_key = 0x1122334455667788ull;
  resp.hedged = true;
  resp.hedge_won = true;
  resp.grammar_epoch = 7;
  resp.domains_hash = 0x0123456789abcdefull;
  resp.alive_role_values = 42;
  resp.latency_us = 1234;
  resp.error = "soft: rerouted";
  util::DynBitset d(13);
  d.set(0);
  d.set(5);
  d.set(12);
  resp.domains.push_back(d);

  std::vector<std::uint8_t> frame;
  ASSERT_TRUE(encode_response(resp, frame));
  FrameHeader header;
  ASSERT_EQ(decode_header(frame.data(), frame.size(), header),
            DecodeStatus::Ok);
  EXPECT_EQ(header.type, FrameType::ParseResponse);

  WireResponse back;
  ASSERT_EQ(decode_response(frame.data() + kHeaderSize, header.payload_len,
                            back),
            DecodeStatus::Ok);
  EXPECT_EQ(back.status, resp.status);
  EXPECT_EQ(back.served_backend, resp.served_backend);
  EXPECT_TRUE(back.accepted);
  EXPECT_TRUE(back.cached);
  EXPECT_FALSE(back.coalesced);
  EXPECT_TRUE(back.degraded);
  EXPECT_EQ(back.shard, 3);
  EXPECT_EQ(back.idempotency_key, 0x1122334455667788ull);
  EXPECT_TRUE(back.hedged);
  EXPECT_TRUE(back.hedge_won);
  EXPECT_EQ(back.grammar_epoch, 7u);
  EXPECT_EQ(back.domains_hash, resp.domains_hash);
  EXPECT_EQ(back.alive_role_values, 42u);
  EXPECT_EQ(back.latency_us, 1234u);
  EXPECT_EQ(back.error, "soft: rerouted");
  ASSERT_EQ(back.domains.size(), 1u);
  EXPECT_EQ(back.domains[0].size(), 13u);
  for (std::size_t i = 0; i < 13; ++i)
    EXPECT_EQ(back.domains[0].test(i), d.test(i)) << i;
}

// The worked example in docs/SERVING.md ("Anatomy of a request"), byte
// for byte.  If this test moves, the manual moves with it.
TEST(WireProtocol, GoldenHexdumpMatchesTheManual) {
  WireRequest req;
  req.grammar = "english";
  req.backend = engine::Backend::Serial;
  req.deadline_ms = 0;
  req.flags = 0;
  req.words = {"the", "dog", "runs"};
  std::vector<std::uint8_t> frame;
  ASSERT_TRUE(encode_request(req, frame));

  const std::uint8_t golden[] = {
      // header: magic "PARC", version 2, type 1, payload length 41
      0x50, 0x41, 0x52, 0x43, 0x02, 0x01, 0x29, 0x00, 0x00, 0x00,
      // backend=serial(0), flags=0, deadline_ms=0
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      // idempotency_key=0 (v2)
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      // grammar: len 7, "english"
      0x07, 0x00, 'e', 'n', 'g', 'l', 'i', 's', 'h',
      // word count 3; "the", "dog", "runs"
      0x03, 0x00, 0x03, 0x00, 't', 'h', 'e', 0x03, 0x00, 'd', 'o', 'g',
      0x04, 0x00, 'r', 'u', 'n', 's'};
  ASSERT_EQ(frame.size(), sizeof golden);
  for (std::size_t i = 0; i < sizeof golden; ++i)
    EXPECT_EQ(frame[i], golden[i]) << "byte " << i;
}

// A v1 peer (previous release) must keep working against a v2
// decoder: the header accepts version 1, and version-aware payload
// decoding skips the fields v1 never sent (idempotency key / echo).
TEST(WireProtocol, V1RequestFramesStillDecode) {
  // The PR 9 golden frame, byte for byte — version 1, no key field.
  const std::uint8_t v1_frame[] = {
      0x50, 0x41, 0x52, 0x43, 0x01, 0x01, 0x21, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x07, 0x00, 'e', 'n', 'g', 'l', 'i', 's', 'h',
      0x03, 0x00, 0x03, 0x00, 't', 'h', 'e', 0x03, 0x00, 'd', 'o', 'g',
      0x04, 0x00, 'r', 'u', 'n', 's'};
  FrameHeader header;
  ASSERT_EQ(decode_header(v1_frame, sizeof v1_frame, header),
            DecodeStatus::Ok);
  EXPECT_EQ(header.version, 1);
  ASSERT_EQ(sizeof v1_frame, kHeaderSize + header.payload_len);
  WireRequest req;
  ASSERT_EQ(decode_request(v1_frame + kHeaderSize, header.payload_len,
                           req, header.version),
            DecodeStatus::Ok);
  EXPECT_EQ(req.grammar, "english");
  EXPECT_EQ(req.backend, engine::Backend::Serial);
  EXPECT_EQ(req.idempotency_key, 0u);  // v1 never carries one
  EXPECT_EQ(req.words,
            (std::vector<std::string>{"the", "dog", "runs"}));
  // The same payload under v2 rules must NOT decode cleanly — the
  // eight key bytes it lacks shift every later field.
  WireRequest wrong;
  EXPECT_NE(decode_request(v1_frame + kHeaderSize, header.payload_len,
                           wrong, /*version=*/2),
            DecodeStatus::Ok);
}

TEST(WireProtocol, V1ResponseFramesStillDecode) {
  // Hand-built v1 response payload: status/backend/bits/shard, then
  // straight to grammar_epoch (no key echo), epoch=7, hash, counters,
  // error "x", zero domains.
  std::vector<std::uint8_t> payload = {0x00, 0x02, 0x01, 0x02};
  auto put64 = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      payload.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  auto put32 = [&](std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      payload.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  put64(7);                        // grammar_epoch
  put64(0xfeedfacecafebeefull);    // domains_hash
  put32(42);                       // alive_role_values
  put32(1234);                     // latency_us
  payload.push_back(0x01);         // error len 1
  payload.push_back(0x00);
  payload.push_back('x');
  payload.push_back(0x00);         // ndomains = 0
  payload.push_back(0x00);

  WireResponse back;
  ASSERT_EQ(decode_response(payload.data(), payload.size(), back,
                            /*version=*/1),
            DecodeStatus::Ok);
  EXPECT_EQ(back.status, serve::RequestStatus::Ok);
  EXPECT_EQ(back.served_backend, engine::Backend::Pram);
  EXPECT_TRUE(back.accepted);
  EXPECT_EQ(back.shard, 2);
  EXPECT_EQ(back.idempotency_key, 0u);
  EXPECT_EQ(back.grammar_epoch, 7u);
  EXPECT_EQ(back.domains_hash, 0xfeedfacecafebeefull);
  EXPECT_EQ(back.alive_role_values, 42u);
  EXPECT_EQ(back.latency_us, 1234u);
  EXPECT_EQ(back.error, "x");
}

TEST(WireProtocol, RejectsBadMagicVersionTypeAndOversize) {
  std::vector<std::uint8_t> frame;
  encode_request(sample_request(), frame);
  FrameHeader header;

  auto mutated = frame;
  mutated[0] = 'X';
  EXPECT_EQ(decode_header(mutated.data(), mutated.size(), header),
            DecodeStatus::BadMagic);

  mutated = frame;
  mutated[4] = 99;  // version above kWireVersion
  EXPECT_EQ(decode_header(mutated.data(), mutated.size(), header),
            DecodeStatus::BadVersion);
  mutated[4] = 0;  // below kMinWireVersion
  EXPECT_EQ(decode_header(mutated.data(), mutated.size(), header),
            DecodeStatus::BadVersion);

  mutated = frame;
  mutated[5] = 0;  // type below the enum range
  EXPECT_EQ(decode_header(mutated.data(), mutated.size(), header),
            DecodeStatus::BadType);
  mutated[5] = 200;
  EXPECT_EQ(decode_header(mutated.data(), mutated.size(), header),
            DecodeStatus::BadType);

  mutated = frame;
  // payload_len = kMaxPayload + 1 (little-endian at offset 6)
  const std::uint32_t big = kMaxPayload + 1;
  mutated[6] = static_cast<std::uint8_t>(big);
  mutated[7] = static_cast<std::uint8_t>(big >> 8);
  mutated[8] = static_cast<std::uint8_t>(big >> 16);
  mutated[9] = static_cast<std::uint8_t>(big >> 24);
  EXPECT_EQ(decode_header(mutated.data(), mutated.size(), header),
            DecodeStatus::Oversized);
}

TEST(WireProtocol, EveryTruncationIsRejectedNotCrashed) {
  std::vector<std::uint8_t> frame;
  encode_request(sample_request(), frame);
  FrameHeader header;
  ASSERT_EQ(decode_header(frame.data(), frame.size(), header),
            DecodeStatus::Ok);

  for (std::size_t n = 0; n < kHeaderSize; ++n)
    EXPECT_EQ(decode_header(frame.data(), n, header),
              DecodeStatus::Truncated)
        << n;
  // Every payload prefix shorter than the real payload must decode to
  // Truncated (a string length that lies lands in the same bucket).
  WireRequest req;
  for (std::size_t n = 0; n < header.payload_len; ++n)
    EXPECT_EQ(decode_request(frame.data() + kHeaderSize, n, req),
              DecodeStatus::Truncated)
        << n;
  // Trailing garbage is Malformed, not silently ignored.
  std::vector<std::uint8_t> longer(frame.begin() + kHeaderSize, frame.end());
  longer.push_back(0xee);
  EXPECT_EQ(decode_request(longer.data(), longer.size(), req),
            DecodeStatus::Malformed);
}

TEST(WireProtocol, PayloadLyingAboutItselfIsRejected) {
  std::vector<std::uint8_t> frame;
  encode_request(sample_request(), frame);
  const std::vector<std::uint8_t> payload(frame.begin() + kHeaderSize,
                                          frame.end());
  WireResponse resp;
  std::vector<std::uint8_t> rframe;
  encode_response(resp, rframe);
  const std::vector<std::uint8_t> rpayload(rframe.begin() + kHeaderSize,
                                           rframe.end());

  // Backend byte reserved (1, the deleted OpenMP engine) or out of
  // range, in the request and in the response.
  for (std::uint8_t bad : {std::uint8_t{1}, std::uint8_t{200}}) {
    auto lying = payload;
    lying[0] = bad;
    WireRequest req;
    EXPECT_EQ(decode_request(lying.data(), lying.size(), req),
              DecodeStatus::Malformed)
        << int{bad};
    auto rlying = rpayload;
    rlying[1] = bad;
    WireResponse back;
    EXPECT_EQ(decode_response(rlying.data(), rlying.size(), back),
              DecodeStatus::Malformed)
        << int{bad};
  }

  // response status byte out of range
  auto rlying = rpayload;
  rlying[0] = 77;
  WireResponse back;
  EXPECT_EQ(decode_response(rlying.data(), rlying.size(), back),
            DecodeStatus::Malformed);
}

// Deterministic mutation fuzz: single-byte corruptions of a valid
// frame must decode to Ok or a clean DecodeStatus — never crash, hang,
// or read out of bounds (ASan/UBSan run this in CI).
TEST(WireProtocol, MutationFuzzNeverCrashes) {
  std::vector<std::uint8_t> frame;
  encode_request(sample_request(), frame);
  std::mt19937 rng(0x5eed);
  std::uniform_int_distribution<std::size_t> pos(0, frame.size() - 1);
  std::uniform_int_distribution<int> byte(0, 255);

  for (int iter = 0; iter < 20000; ++iter) {
    auto mutated = frame;
    const int flips = 1 + iter % 4;
    for (int f = 0; f < flips; ++f)
      mutated[pos(rng)] = static_cast<std::uint8_t>(byte(rng));
    FrameHeader header;
    const DecodeStatus hs =
        decode_header(mutated.data(), mutated.size(), header);
    if (hs != DecodeStatus::Ok) continue;
    WireRequest req;
    const std::size_t avail = mutated.size() - kHeaderSize;
    (void)decode_request(mutated.data() + kHeaderSize,
                         std::min<std::size_t>(avail, header.payload_len),
                         req);
  }
  SUCCEED();
}

WireResponse sample_response() {
  WireResponse resp;
  resp.status = serve::RequestStatus::Ok;
  resp.served_backend = engine::Backend::Maspar;
  resp.accepted = true;
  resp.shard = 1;
  resp.grammar_epoch = 3;
  resp.domains_hash = 0xfeedfacecafebeefull;
  resp.latency_us = 512;
  resp.error = "x";
  util::DynBitset d(21);
  d.set(2);
  d.set(20);
  resp.domains.push_back(d);
  resp.domains.push_back(util::DynBitset(8));
  return resp;
}

// Regression for the decode_response overflow: a domain bit-count near
// UINT32_MAX used to wrap (nbits + 7) / 8 to a tiny nbytes in 32-bit
// arithmetic, pass the bounds check, and read ~512 MiB past the
// payload.  Every hostile count must land in Truncated instead.
TEST(WireProtocol, HostileDomainBitCountIsRejected) {
  WireResponse resp;  // no domains
  std::vector<std::uint8_t> frame;
  ASSERT_TRUE(encode_response(resp, frame));
  auto payload = std::vector<std::uint8_t>(frame.begin() + kHeaderSize,
                                           frame.end());
  // Patch the trailing domain count to 1 and append a lying bit-count
  // plus a few real bytes for a broken decoder to march past.
  payload[payload.size() - 2] = 1;
  payload[payload.size() - 1] = 0;
  for (std::uint64_t nbits = 0xFFFFFFF9ull; nbits <= 0xFFFFFFFFull; ++nbits) {
    auto evil = payload;
    for (int i = 0; i < 4; ++i)
      evil.push_back(static_cast<std::uint8_t>(nbits >> (8 * i)));
    evil.insert(evil.end(), 8, 0xab);
    WireResponse back;
    EXPECT_EQ(decode_response(evil.data(), evil.size(), back),
              DecodeStatus::Truncated)
        << nbits;
  }
}

// The response decoder gets the same hostility sweep as the request
// decoder: every truncation rejected cleanly, trailing garbage is
// Malformed, and random corruption never crashes (ASan/UBSan in CI).
TEST(WireProtocol, ResponseTruncationsAndMutationsNeverCrash) {
  std::vector<std::uint8_t> frame;
  ASSERT_TRUE(encode_response(sample_response(), frame));
  FrameHeader header;
  ASSERT_EQ(decode_header(frame.data(), frame.size(), header),
            DecodeStatus::Ok);

  WireResponse back;
  for (std::size_t n = 0; n < header.payload_len; ++n)
    EXPECT_EQ(decode_response(frame.data() + kHeaderSize, n, back),
              DecodeStatus::Truncated)
        << n;
  std::vector<std::uint8_t> longer(frame.begin() + kHeaderSize, frame.end());
  longer.push_back(0xee);
  EXPECT_EQ(decode_response(longer.data(), longer.size(), back),
            DecodeStatus::Malformed);

  std::mt19937 rng(0xd0d0);
  std::uniform_int_distribution<std::size_t> pos(0, frame.size() - 1);
  std::uniform_int_distribution<int> byte(0, 255);
  for (int iter = 0; iter < 20000; ++iter) {
    auto mutated = frame;
    const int flips = 1 + iter % 4;
    for (int f = 0; f < flips; ++f)
      mutated[pos(rng)] = static_cast<std::uint8_t>(byte(rng));
    const DecodeStatus hs =
        decode_header(mutated.data(), mutated.size(), header);
    if (hs != DecodeStatus::Ok) continue;
    const std::size_t avail = mutated.size() - kHeaderSize;
    (void)decode_response(mutated.data() + kHeaderSize,
                          std::min<std::size_t>(avail, header.payload_len),
                          back);
  }
  SUCCEED();
}

// Encoders refuse messages the frame format cannot represent instead
// of emitting self-inconsistent bytes, and roll `out` back so nothing
// half-framed reaches the wire.
TEST(WireProtocol, EncodeRefusesUnframeableMessages) {
  const std::vector<std::uint8_t> sentinel = {0xaa, 0xbb};

  WireRequest req = sample_request();
  req.words.push_back(std::string(70000, 'w'));  // word > u16 length field
  auto out = sentinel;
  EXPECT_FALSE(encode_request(req, out));
  EXPECT_EQ(out, sentinel);

  req = sample_request();
  req.grammar.assign(70000, 'g');
  out = sentinel;
  EXPECT_FALSE(encode_request(req, out));
  EXPECT_EQ(out, sentinel);

  req = sample_request();
  req.words.assign(65536, "w");  // word count > u16
  out = sentinel;
  EXPECT_FALSE(encode_request(req, out));
  EXPECT_EQ(out, sentinel);

  req = sample_request();
  req.words.assign(20, std::string(60000, 'w'));  // payload > kMaxPayload
  out = sentinel;
  EXPECT_FALSE(encode_request(req, out));
  EXPECT_EQ(out, sentinel);

  WireResponse resp;
  resp.error.assign(70000, 'e');
  out = sentinel;
  EXPECT_FALSE(encode_response(resp, out));
  EXPECT_EQ(out, sentinel);

  resp = WireResponse{};
  resp.domains.assign(65536, util::DynBitset(1));  // domain count > u16
  out = sentinel;
  EXPECT_FALSE(encode_response(resp, out));
  EXPECT_EQ(out, sentinel);

  // The limits are exact, not fuzzy: 65535 one-byte words still frame.
  req = sample_request();
  req.words.assign(65535, "w");
  out.clear();
  EXPECT_TRUE(encode_request(req, out));
}

TEST(WireProtocol, ToWireClampsAbsurdLatencies) {
  serve::ParseResponse resp;
  resp.queue_seconds = 5000.0;  // ~83 min in micros overflows u32
  resp.parse_seconds = 1.0;
  EXPECT_EQ(to_wire(resp, 0).latency_us, 0xFFFFFFFFu);
  resp.queue_seconds = 0.0;
  resp.parse_seconds = 0.5;
  EXPECT_EQ(to_wire(resp, 0).latency_us, 500000u);
}

TEST(WireProtocol, RouteHashSeparatesTenantsAndSentences) {
  WireRequest a = sample_request();
  WireRequest b = sample_request();
  EXPECT_EQ(route_hash(a, false), route_hash(b, false));
  EXPECT_EQ(route_hash(a, true), route_hash(b, true));
  b.words.back() = "sleeps";
  EXPECT_EQ(route_hash(a, false), route_hash(b, false));  // same tenant
  EXPECT_NE(route_hash(a, true), route_hash(b, true));
  b = sample_request();
  b.grammar = "toy";
  EXPECT_NE(route_hash(a, false), route_hash(b, false));
  // Word-boundary separator: {"ab","c"} must not collide with {"a","bc"}.
  WireRequest c = sample_request(), d = sample_request();
  c.words = {"ab", "c"};
  d.words = {"a", "bc"};
  EXPECT_NE(route_hash(c, true), route_hash(d, true));
}

}  // namespace
