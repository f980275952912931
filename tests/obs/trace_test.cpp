// Phase-tracer tests: span recording, Chrome trace-event JSON schema,
// the end-to-end span taxonomy for a traced parse, the bounded
// spans-per-parse overhead guarantee, and bit-identity under tracing.
//
// Every recording assertion is gated on obs::kTracingCompiled so the
// suite also passes (and still checks the no-op contract) on a
// -DPARSEC_TRACING=OFF build.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cdg/ac4.h"
#include "cdg/extract.h"
#include "cdg/parser.h"
#include "grammars/toy_grammar.h"
#include "obs/trace.h"
#include "parsec/backend.h"

namespace parsec::obs {
namespace {

// ---- minimal JSON well-formedness checker ---------------------------
// Validates syntax only (objects, arrays, strings with escapes,
// numbers, literals); enough to guarantee Perfetto/chrome://tracing can
// parse what write_chrome_trace emits.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(
                    static_cast<unsigned char>(s_[pos_])))
              return false;
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      } else if (static_cast<unsigned char>(s_[pos_]) < 0x20) {
        return false;  // raw control character
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing '"'
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }
  bool literal(const char* lit) {
    const std::size_t len = std::string(lit).size();
    if (s_.compare(pos_, len, lit) != 0) return false;
    pos_ += len;
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

std::set<std::string> span_names(const TraceSession& session) {
  std::set<std::string> names;
  for (const SpanEvent& e : session.events()) names.insert(e.name);
  return names;
}

bool span_has_arg(const TraceSession& session, const std::string& span,
                  const std::string& key) {
  for (const SpanEvent& e : session.events()) {
    if (span != e.name) continue;
    for (std::uint8_t i = 0; i < e.num_args; ++i)
      if (key == e.args[i].key) return true;
  }
  return false;
}

TEST(Trace, NoSessionMeansNoRecording) {
  {
    Span s("outside.session");
    s.arg("k", std::int64_t{1});
    EXPECT_FALSE(s.active());
  }
  TraceSession session;
  EXPECT_EQ(session.span_count(), 0u);
}

TEST(Trace, SpanRecordsNameCategoryAndArgs) {
  TraceSession session;
  {
    Span s("unit.phase", "testcat");
    s.arg("count", std::int64_t{42});
    s.arg("ratio", 0.5);
  }
  if constexpr (kTracingCompiled) {
    ASSERT_EQ(session.span_count(), 1u);
    const SpanEvent e = session.events()[0];
    EXPECT_STREQ(e.name, "unit.phase");
    EXPECT_STREQ(e.cat, "testcat");
    EXPECT_GE(e.dur_ns, 0);
    ASSERT_EQ(e.num_args, 2);
    EXPECT_STREQ(e.args[0].key, "count");
    EXPECT_EQ(e.args[0].i, 42);
    EXPECT_STREQ(e.args[1].key, "ratio");
    EXPECT_DOUBLE_EQ(e.args[1].f, 0.5);
  } else {
    EXPECT_EQ(session.span_count(), 0u);
  }
}

TEST(Trace, ActiveFollowsSessionLifetime) {
  {
    TraceSession session;
    Span s("lifetime.check");
    EXPECT_EQ(s.active(), kTracingCompiled);
    EXPECT_EQ(TraceSession::active(), &session);
  }
  EXPECT_EQ(TraceSession::active(), nullptr);
  Span after("after.session");
  EXPECT_FALSE(after.active());
}

// Regression: the per-thread buffer cache must not survive a session's
// destruction.  Sequential stack sessions typically land at the same
// address, so an address-keyed cache would falsely hit and push spans
// into the destroyed session's freed buffers (use-after-free) while
// the live session recorded nothing.  Generation keying makes every
// session a cache miss on its first span.
TEST(Trace, SequentialSessionsAtSameAddressRecordIndependently) {
  if constexpr (!kTracingCompiled) GTEST_SKIP() << "tracing compiled out";
  for (int i = 0; i < 3; ++i) {
    TraceSession session;
    { Span s("reuse.span"); }
    EXPECT_EQ(session.span_count(), 1u) << "iteration " << i;
  }
}

TEST(Trace, ThreadsRecordIntoSeparateBuffers) {
  if constexpr (!kTracingCompiled) GTEST_SKIP() << "tracing compiled out";
  TraceSession session;
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([] {
      for (int i = 0; i < 100; ++i) Span s("mt.span");
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(session.span_count(), 400u);
  std::set<std::uint32_t> tids;
  for (const SpanEvent& e : session.events()) tids.insert(e.tid);
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
}

TEST(Trace, ChromeTraceJsonIsWellFormed) {
  TraceSession session;
  {
    Span s("json.span", "cat\"needs\\escaping");
    s.arg("i", std::int64_t{-3});
    s.arg("f", 1.25);
  }
  std::ostringstream os;
  session.write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  if constexpr (kTracingCompiled) {
    EXPECT_NE(json.find("\"name\":\"json.span\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"args\":{\"i\":-3,\"f\":1.25}"), std::string::npos);
  }
}

// The acceptance criterion for the observability PR: one traced parse
// emits spans for factoring, mask build, AC-4 fixpoint, and
// extraction, with router-scan and effective-eval counts as span args.
TEST(Trace, EndToEndParseSpanTaxonomy) {
  const grammars::CdgBundle bundle = grammars::make_toy_grammar();
  const cdg::Sentence s = bundle.tag("The program runs");

  TraceSession session;
  // Factoring happens at parser construction.
  engine::EngineSet engines(bundle.grammar);
  const engine::BackendRun serial_run =
      engine::run_backend(engines, engine::Backend::Serial, s);
  const engine::BackendRun maspar_run =
      engine::run_backend(engines, engine::Backend::Maspar, s);
  EXPECT_EQ(serial_run.domains_hash, maspar_run.domains_hash);

  cdg::SequentialParser seq(bundle.grammar);
  cdg::Network net = seq.make_network(s);
  seq.parse(net);
  cdg::filter_ac4(net);  // already at the fixpoint: AC-4 confirms it
  EXPECT_EQ(engine::hash_domains(net), serial_run.domains_hash);
  cdg::extract_parses(net, 8);

  if constexpr (kTracingCompiled) {
    const std::set<std::string> names = span_names(session);
    for (const char* required :
         {"cdg.factoring", "cdg.mask_build", "cdg.ac4_fixpoint",
          "cdg.extract", "backend.serial", "backend.maspar", "serial.unary",
          "serial.binary", "serial.filter", "maspar.filter"})
      EXPECT_TRUE(names.count(required)) << "missing span: " << required;
    // Effective-eval counts ride on the backend envelope spans...
    EXPECT_TRUE(span_has_arg(session, "backend.serial",
                             "effective_unary_evals"));
    EXPECT_TRUE(span_has_arg(session, "backend.serial",
                             "effective_binary_evals"));
    // ...and the MasPar envelope carries the machine counters.
    EXPECT_TRUE(span_has_arg(session, "backend.maspar", "scan_ops"));
    EXPECT_TRUE(span_has_arg(session, "backend.maspar", "plural_ops"));
    EXPECT_TRUE(span_has_arg(session, "backend.maspar", "route_ops"));
    EXPECT_TRUE(span_has_arg(session, "maspar.filter", "scan_ops"));
  } else {
    EXPECT_EQ(session.span_count(), 0u);
  }
}

// Overhead guarantee: spans are phase-grained.  A parse records a
// bounded handful of spans — never one per role value or arc element —
// so tracing cost cannot scale with sentence size.
TEST(Trace, SpansPerParseAreBounded) {
  if constexpr (!kTracingCompiled) GTEST_SKIP() << "tracing compiled out";
  const grammars::CdgBundle bundle = grammars::make_toy_grammar();
  const cdg::Sentence s = bundle.tag("The program runs");
  engine::EngineSet engines(bundle.grammar);

  TraceSession session;
  engine::run_backend(engines, engine::Backend::Serial, s);
  const std::size_t serial_spans = session.span_count();
  EXPECT_GE(serial_spans, 4u);   // envelope + unary + binary + filter
  EXPECT_LT(serial_spans, 64u);  // phase granularity, not per-element
  engine::run_backend(engines, engine::Backend::Maspar, s);
  EXPECT_LT(session.span_count(), serial_spans + 64u);
}

// Tracing must observe, never perturb: the masked and plain evaluation
// paths reach bit-identical fixpoints with a session active.
TEST(Trace, MaskedAndPlainFixpointsBitIdenticalUnderTracing) {
  const grammars::CdgBundle bundle = grammars::make_toy_grammar();
  const cdg::Sentence s = bundle.tag("A dog crashes");

  TraceSession session;
  cdg::ParseOptions masked;
  masked.use_masks = true;
  cdg::ParseOptions plain;
  plain.use_masks = false;
  cdg::SequentialParser pm(bundle.grammar, masked);
  cdg::SequentialParser pp(bundle.grammar, plain);
  cdg::Network nm = pm.make_network(s);
  cdg::Network np = pp.make_network(s);
  pm.parse(nm);
  pp.parse(np);
  nm.filter();
  np.filter();
  EXPECT_EQ(engine::hash_domains(nm), engine::hash_domains(np));
}

}  // namespace
}  // namespace parsec::obs
