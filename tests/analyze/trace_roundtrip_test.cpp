// Trace-schema lockstep: everything obs::TraceSession's Chrome
// trace-event writer emits must survive the analyzer's reader, and a
// real traced run (ParseService batch + direct backend runs) must
// reconstruct into the full span taxonomy documented in
// docs/OBSERVABILITY.md — serve.request wrappers with their
// queue/status args, backend envelopes with cost-counter args, and the
// engine phases nested beneath them.  If the writer grows a field the
// reader drops (or vice versa), this suite is the tripwire.
//
// Mirrors tests/obs/trace_test.cpp's EndToEndParseSpanTaxonomy on the
// producing side; every recording assertion is gated on
// obs::kTracingCompiled so a -DPARSEC_TRACING=OFF build still checks
// the no-op contract.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/span_graph.h"
#include "analyze/trace_reader.h"
#include "cdg/ac4.h"
#include "cdg/extract.h"
#include "cdg/parser.h"
#include "grammars/toy_grammar.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parsec/backend.h"
#include "serve/parse_service.h"

namespace parsec::analyze {
namespace {

constexpr std::size_t kBatch = 8;

/// One traced run: a ParseService batch on 2 workers, then direct
/// serial + maspar backend runs and a sequential parse + extraction
/// (the obs taxonomy test's workload), serialized through the writer.
std::string traced_run_json(std::size_t* span_count) {
  const grammars::CdgBundle bundle = grammars::make_toy_grammar();
  const cdg::Sentence sentence = bundle.tag("The program runs");

  obs::TraceSession session;
  {
    obs::Registry registry;  // isolated: don't pollute the global one
    serve::ParseService::Options sopt;
    sopt.threads = 2;
    sopt.metrics = &registry;
    serve::ParseService service(bundle.grammar, sopt);
    std::vector<serve::ParseRequest> batch(kBatch);
    for (serve::ParseRequest& req : batch) {
      req.sentence = sentence;
      req.backend = engine::Backend::Serial;
    }
    const std::vector<serve::ParseResponse> responses =
        service.parse_batch(std::move(batch));
    for (const serve::ParseResponse& resp : responses) {
      EXPECT_EQ(resp.status, serve::RequestStatus::Ok);
      EXPECT_TRUE(resp.accepted);
    }
  }  // service joins its workers: their span buffers are quiescent

  engine::EngineSet engines(bundle.grammar);
  engine::run_backend(engines, engine::Backend::Serial, sentence);
  engine::run_backend(engines, engine::Backend::Maspar, sentence);

  cdg::SequentialParser seq(bundle.grammar);
  cdg::Network net = seq.make_network(sentence);
  seq.parse(net);
  cdg::filter_ac4(net);
  cdg::extract_parses(net, 8);

  *span_count = session.span_count();
  std::ostringstream os;
  session.write_chrome_trace(os);
  return os.str();
}

TEST(AnalyzeRoundtrip, ReaderIngestsEverySpanTheWriterEmits) {
  std::size_t span_count = 0;
  const Trace trace = read_trace_text(traced_run_json(&span_count));
  EXPECT_EQ(trace.events.size(), span_count);
  EXPECT_EQ(trace.skipped, 0u);
  if constexpr (!obs::kTracingCompiled) {
    EXPECT_TRUE(trace.events.empty());  // the no-op contract
    return;
  }
  for (const TraceEvent& e : trace.events) {
    EXPECT_FALSE(e.name.empty());
    EXPECT_FALSE(e.cat.empty());
    EXPECT_GE(e.dur_us, 0.0);
  }
}

TEST(AnalyzeRoundtrip, FullSpanTaxonomyReconstructs) {
  if constexpr (!obs::kTracingCompiled)
    GTEST_SKIP() << "tracing compiled out";
  std::size_t span_count = 0;
  const Trace trace = read_trace_text(traced_run_json(&span_count));

  std::set<std::string> names;
  for (const TraceEvent& e : trace.events) names.insert(e.name);
  for (const char* required :
       {"serve.request", "cdg.factoring", "cdg.mask_build",
        "cdg.ac4_fixpoint", "cdg.extract", "backend.serial", "backend.maspar",
        "serial.unary", "serial.binary", "serial.filter", "maspar.filter"})
    EXPECT_TRUE(names.count(required)) << "missing span: " << required;

  // The request wrapper carries the worker-side args...
  std::size_t requests_seen = 0;
  for (const TraceEvent& e : trace.events) {
    if (e.name != "serve.request") continue;
    ++requests_seen;
    EXPECT_EQ(e.cat, "serve");
    for (const char* arg :
         {"queue_us", "n", "status", "accepted", "degraded"})
      EXPECT_TRUE(e.args.count(arg)) << "serve.request missing " << arg;
    EXPECT_DOUBLE_EQ(e.args.at("status"), 0.0);  // RequestStatus::Ok
    EXPECT_DOUBLE_EQ(e.args.at("accepted"), 1.0);
    EXPECT_DOUBLE_EQ(e.args.at("n"), 3.0);  // "The program runs"
  }
  EXPECT_EQ(requests_seen, kBatch);

  // ...and the envelopes keep their cost counters through the reader.
  for (const TraceEvent& e : trace.events) {
    if (e.name == "backend.serial") {
      EXPECT_TRUE(e.args.count("effective_unary_evals"));
      EXPECT_TRUE(e.args.count("effective_binary_evals"));
      EXPECT_GT(e.args.at("effective_binary_evals"), 0.0);
    } else if (e.name == "backend.maspar") {
      for (const char* arg : {"plural_ops", "scan_ops", "route_ops"})
        EXPECT_TRUE(e.args.count(arg)) << "backend.maspar missing " << arg;
    }
  }
}

TEST(AnalyzeRoundtrip, AnalysisReconstructsServiceRequests) {
  if constexpr (!obs::kTracingCompiled)
    GTEST_SKIP() << "tracing compiled out";
  std::size_t span_count = 0;
  const Trace trace = read_trace_text(traced_run_json(&span_count));
  const RunAnalysis run = analyze_trace(trace);

  // kBatch service requests plus the two bare direct-run envelopes.
  ASSERT_EQ(run.requests.size(), kBatch + 2);
  std::size_t service_requests = 0, bare_serial = 0, bare_maspar = 0;
  for (const RequestStat& r : run.requests) {
    if (r.root_name == "serve.request") {
      ++service_requests;
      EXPECT_EQ(r.backend, "serial");
      EXPECT_EQ(r.n, 3);
      EXPECT_EQ(r.accepted, 1);
      EXPECT_GE(r.queue_us, 0.0);
      // The envelope nests inside the wrapper, so the decomposition
      // starts and ends on the wrapper's own time.
      ASSERT_FALSE(r.path.empty());
      EXPECT_EQ(r.path.front().name, "serve.request");
      double sum = 0.0;
      for (const PathSegment& seg : r.path) sum += seg.us;
      EXPECT_NEAR(sum, r.dur_us, 0.1);  // exact up to writer rounding
    } else if (r.root_name == "backend.serial") {
      ++bare_serial;
    } else if (r.root_name == "backend.maspar") {
      ++bare_maspar;
    }
  }
  EXPECT_EQ(service_requests, kBatch);
  EXPECT_EQ(bare_serial, 1u);
  EXPECT_EQ(bare_maspar, 1u);

  // The engine phases must appear in the aggregate with self <= total.
  std::set<std::string> phase_names;
  for (const PhaseStat& p : run.phases) {
    phase_names.insert(p.name);
    EXPECT_LE(p.self_us, p.total_us + 0.1) << p.name;
    EXPECT_GT(p.count, 0u);
  }
  for (const char* required : {"serve.request", "backend.serial",
                               "serial.unary", "serial.binary"})
    EXPECT_TRUE(phase_names.count(required)) << required;
  // Two workers plus the main thread recorded spans.
  EXPECT_GE(run.threads, 2u);
  EXPECT_LE(run.threads, 4u);
}

}  // namespace
}  // namespace parsec::analyze
