#include "net/wire.h"

#include <algorithm>
#include <cstring>

namespace parsec::net {

namespace {

// Little-endian primitive writers.  The wire format is explicitly LE
// regardless of host order; these spell the byte shuffles out instead
// of memcpy-ing host memory.
void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/// Fails (returns false, appends nothing) when `s` exceeds the u16
/// length field instead of emitting a self-inconsistent frame.
bool put_str16(std::vector<std::uint8_t>& out, const std::string& s) {
  if (s.size() > 0xffff) return false;
  put_u16(out, static_cast<std::uint16_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
  return true;
}

/// Bounds-checked little-endian reader over a payload.  Every get_*
/// fails (returns false) instead of reading past `end`.
struct Reader {
  const std::uint8_t* p;
  const std::uint8_t* end;

  std::size_t remaining() const { return static_cast<std::size_t>(end - p); }

  bool get_u8(std::uint8_t& v) {
    if (remaining() < 1) return false;
    v = *p++;
    return true;
  }
  bool get_u16(std::uint16_t& v) {
    if (remaining() < 2) return false;
    v = static_cast<std::uint16_t>(p[0] | (p[1] << 8));
    p += 2;
    return true;
  }
  bool get_u32(std::uint32_t& v) {
    if (remaining() < 4) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    p += 4;
    return true;
  }
  bool get_u64(std::uint64_t& v) {
    if (remaining() < 8) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    p += 8;
    return true;
  }
  bool get_str16(std::string& s) {
    std::uint16_t len = 0;
    if (!get_u16(len) || remaining() < len) return false;
    s.assign(reinterpret_cast<const char*>(p), len);
    p += len;
    return true;
  }
};

// Wire byte of each backend, indexed by engine::Backend.  Byte 1 was
// the deleted OpenMP engine: it stays reserved and decodes as Malformed
// like any other unknown value.
constexpr std::uint8_t kBackendBytes[engine::kNumBackends] = {0, 2, 3, 4};

std::uint8_t backend_byte(engine::Backend b) {
  return kBackendBytes[static_cast<std::size_t>(b)];
}

bool backend_of_byte(std::uint8_t byte, engine::Backend& out) {
  for (std::size_t i = 0; i < engine::kNumBackends; ++i)
    if (kBackendBytes[i] == byte) {
      out = engine::kAllBackends[i];
      return true;
    }
  return false;
}

void put_header(std::vector<std::uint8_t>& out, FrameType type,
                std::uint32_t payload_len) {
  out.insert(out.end(), kMagic, kMagic + 4);
  put_u8(out, kWireVersion);
  put_u8(out, static_cast<std::uint8_t>(type));
  put_u32(out, payload_len);
}

/// Patches the payload-length field of the header that starts at
/// `header_at`, once the payload has been appended after it.  Fails
/// when the payload outgrew kMaxPayload — the peer would reject the
/// frame as Oversized, so refusing to emit it is strictly better.
bool patch_len(std::vector<std::uint8_t>& out, std::size_t header_at) {
  const std::size_t payload_len = out.size() - header_at - kHeaderSize;
  if (payload_len > kMaxPayload) return false;
  for (int i = 0; i < 4; ++i)
    out[header_at + 6 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(payload_len >> (8 * i));
  return true;
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* b = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

const char* to_string(DecodeStatus s) {
  switch (s) {
    case DecodeStatus::Ok:
      return "ok";
    case DecodeStatus::BadMagic:
      return "bad_magic";
    case DecodeStatus::BadVersion:
      return "bad_version";
    case DecodeStatus::BadType:
      return "bad_type";
    case DecodeStatus::Oversized:
      return "oversized";
    case DecodeStatus::Truncated:
      return "truncated";
    case DecodeStatus::Malformed:
      return "malformed";
  }
  return "unknown";
}

// Both encoders fail fast — `out` is rolled back to its original size
// and false returned — rather than emit a frame whose length fields
// disagree with its contents (which the peer would reject and answer
// by dropping the connection).
bool encode_request(const WireRequest& req, std::vector<std::uint8_t>& out) {
  const std::size_t header_at = out.size();
  put_header(out, FrameType::ParseRequest, 0);
  put_u8(out, backend_byte(req.backend));
  put_u8(out, req.flags);
  put_u32(out, req.deadline_ms);
  put_u64(out, req.idempotency_key);  // v2
  bool ok = put_str16(out, req.grammar) && req.words.size() <= 0xffff;
  if (ok) {
    put_u16(out, static_cast<std::uint16_t>(req.words.size()));
    for (const std::string& w : req.words)
      if (!(ok = put_str16(out, w))) break;
  }
  if (!ok || !patch_len(out, header_at)) {
    out.resize(header_at);
    return false;
  }
  return true;
}

bool encode_response(const WireResponse& resp, std::vector<std::uint8_t>& out) {
  const std::size_t header_at = out.size();
  put_header(out, FrameType::ParseResponse, 0);
  put_u8(out, static_cast<std::uint8_t>(resp.status));
  put_u8(out, backend_byte(resp.served_backend));
  std::uint8_t bits = 0;
  if (resp.accepted) bits |= kBitAccepted;
  if (resp.cached) bits |= kBitCached;
  if (resp.coalesced) bits |= kBitCoalesced;
  if (resp.degraded) bits |= kBitDegraded;
  if (resp.hedged) bits |= kBitHedged;
  if (resp.hedge_won) bits |= kBitHedgeWon;
  put_u8(out, bits);
  put_u8(out, resp.shard);
  put_u64(out, resp.idempotency_key);  // v2
  put_u64(out, resp.grammar_epoch);
  put_u64(out, resp.domains_hash);
  put_u32(out, resp.alive_role_values);
  put_u32(out, resp.latency_us);
  bool ok = put_str16(out, resp.error) && resp.domains.size() <= 0xffff;
  if (ok) {
    put_u16(out, static_cast<std::uint16_t>(resp.domains.size()));
    for (const util::DynBitset& d : resp.domains) {
      if (d.size() > 0xffffffffull) {
        ok = false;
        break;
      }
      put_u32(out, static_cast<std::uint32_t>(d.size()));
      // Bit i travels as bit (i % 8) of byte (i / 8).
      std::uint8_t acc = 0;
      for (std::size_t i = 0; i < d.size(); ++i) {
        if (d.test(i)) acc |= static_cast<std::uint8_t>(1u << (i % 8));
        if (i % 8 == 7) {
          put_u8(out, acc);
          acc = 0;
        }
      }
      if (d.size() % 8 != 0) put_u8(out, acc);
    }
  }
  if (!ok || !patch_len(out, header_at)) {
    out.resize(header_at);
    return false;
  }
  return true;
}

void encode_control(FrameType type, std::vector<std::uint8_t>& out) {
  put_header(out, type, 0);
}

DecodeStatus decode_header(const std::uint8_t* buf, std::size_t n,
                           FrameHeader& out) {
  if (n < kHeaderSize) return DecodeStatus::Truncated;
  if (std::memcmp(buf, kMagic, 4) != 0) return DecodeStatus::BadMagic;
  if (buf[4] < kMinWireVersion || buf[4] > kWireVersion)
    return DecodeStatus::BadVersion;
  const std::uint8_t type = buf[5];
  if (type < static_cast<std::uint8_t>(FrameType::ParseRequest) ||
      type > static_cast<std::uint8_t>(FrameType::Pong))
    return DecodeStatus::BadType;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i)
    len |= static_cast<std::uint32_t>(buf[6 + i]) << (8 * i);
  if (len > kMaxPayload) return DecodeStatus::Oversized;
  out.type = static_cast<FrameType>(type);
  out.version = buf[4];
  out.payload_len = len;
  return DecodeStatus::Ok;
}

// Reader underflow is Truncated (bytes missing — a length field that
// points past the end is indistinguishable from a cut-off stream);
// Malformed is reserved for payloads whose bytes are all present but
// lie (enum out of range, trailing garbage).
DecodeStatus decode_request(const std::uint8_t* buf, std::size_t n,
                            WireRequest& out, std::uint8_t version) {
  Reader r{buf, buf + n};
  std::uint8_t backend = 0;
  if (!r.get_u8(backend) || !r.get_u8(out.flags) ||
      !r.get_u32(out.deadline_ms))
    return DecodeStatus::Truncated;
  out.idempotency_key = 0;  // v1 has no key field
  if (version >= 2 && !r.get_u64(out.idempotency_key))
    return DecodeStatus::Truncated;
  if (!r.get_str16(out.grammar)) return DecodeStatus::Truncated;
  if (!backend_of_byte(backend, out.backend)) return DecodeStatus::Malformed;
  std::uint16_t words = 0;
  if (!r.get_u16(words)) return DecodeStatus::Truncated;
  out.words.clear();
  out.words.reserve(words);
  for (std::uint16_t i = 0; i < words; ++i) {
    std::string w;
    if (!r.get_str16(w)) return DecodeStatus::Truncated;
    out.words.push_back(std::move(w));
  }
  return r.remaining() == 0 ? DecodeStatus::Ok : DecodeStatus::Malformed;
}

DecodeStatus decode_response(const std::uint8_t* buf, std::size_t n,
                             WireResponse& out, std::uint8_t version) {
  Reader r{buf, buf + n};
  std::uint8_t status = 0, backend = 0, bits = 0;
  if (!r.get_u8(status) || !r.get_u8(backend) || !r.get_u8(bits) ||
      !r.get_u8(out.shard))
    return DecodeStatus::Truncated;
  if (status >= serve::kNumRequestStatuses ||
      !backend_of_byte(backend, out.served_backend))
    return DecodeStatus::Malformed;
  out.status = static_cast<serve::RequestStatus>(status);
  out.accepted = bits & kBitAccepted;
  out.cached = bits & kBitCached;
  out.coalesced = bits & kBitCoalesced;
  out.degraded = bits & kBitDegraded;
  out.hedged = bits & kBitHedged;
  out.hedge_won = bits & kBitHedgeWon;
  out.idempotency_key = 0;  // v1 has no key echo
  if (version >= 2 && !r.get_u64(out.idempotency_key))
    return DecodeStatus::Truncated;
  if (!r.get_u64(out.grammar_epoch) || !r.get_u64(out.domains_hash) ||
      !r.get_u32(out.alive_role_values) || !r.get_u32(out.latency_us) ||
      !r.get_str16(out.error))
    return DecodeStatus::Truncated;
  std::uint16_t ndomains = 0;
  if (!r.get_u16(ndomains)) return DecodeStatus::Truncated;
  out.domains.clear();
  out.domains.reserve(ndomains);
  for (std::uint16_t d = 0; d < ndomains; ++d) {
    std::uint32_t nbits = 0;
    if (!r.get_u32(nbits)) return DecodeStatus::Truncated;
    // 64-bit arithmetic: nbits near UINT32_MAX must not wrap nbytes to
    // 0 and sail past the bounds check into an out-of-bounds bit copy.
    const std::size_t nbytes = (static_cast<std::size_t>(nbits) + 7) / 8;
    if (r.remaining() < nbytes) return DecodeStatus::Truncated;
    util::DynBitset bs(nbits);
    for (std::uint32_t i = 0; i < nbits; ++i)
      if (r.p[i / 8] & (1u << (i % 8))) bs.set(i);
    r.p += nbytes;
    out.domains.push_back(std::move(bs));
  }
  return r.remaining() == 0 ? DecodeStatus::Ok : DecodeStatus::Malformed;
}

WireResponse to_wire(const serve::ParseResponse& resp, int shard) {
  WireResponse w;
  w.status = resp.status;
  w.served_backend = resp.served_backend;
  w.accepted = resp.accepted;
  w.cached = resp.cached;
  w.coalesced = resp.coalesced;
  w.degraded = resp.degraded;
  w.shard = (shard >= 0 && shard < 0xff) ? static_cast<std::uint8_t>(shard)
                                         : kShardUnset;
  w.grammar_epoch = resp.grammar_epoch;
  w.domains_hash = resp.domains_hash;
  w.alive_role_values = static_cast<std::uint32_t>(resp.alive_role_values);
  // Clamp before the double->u32 cast: an out-of-range conversion
  // (latency beyond ~71 minutes, e.g. a stuck watchdog) is UB.
  const double us = (resp.queue_seconds + resp.parse_seconds) * 1e6;
  w.latency_us =
      us > 0 ? static_cast<std::uint32_t>(std::min(us, 4294967295.0)) : 0;
  w.error = resp.error;
  w.domains = resp.domains;
  return w;
}

std::uint64_t route_hash(const WireRequest& req, bool include_words) {
  std::uint64_t h = fnv1a(kFnvOffset, req.grammar.data(), req.grammar.size());
  if (include_words) {
    for (const std::string& w : req.words) {
      h = fnv1a(h, w.data(), w.size());
      h = fnv1a(h, " ", 1);  // word boundary: {"ab","c"} != {"a","bc"}
    }
  }
  return h;
}

}  // namespace parsec::net
