// Registry merge/scrape correctness, histogram bucketing, Prometheus
// text-format checks, and the StatsPublisher metric families.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "parsec/backend.h"
#include "util/rng.h"

namespace parsec::obs {
namespace {

TEST(Counter, MergesStripesAcrossThreads) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kIncsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncsPerThread; ++i) c.inc();
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIncsPerThread);
}

TEST(Counter, IncByAmount) {
  Counter c;
  c.inc(5);
  c.inc(7);
  EXPECT_EQ(c.value(), 12u);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
}

TEST(Histogram, BucketBoundariesAreLeInclusive) {
  Histogram h({1.0, 2.0, 5.0});
  h.observe(0.5);  // bucket le=1
  h.observe(1.0);  // bucket le=1 (inclusive upper bound)
  h.observe(1.5);  // bucket le=2
  h.observe(10.0); // +Inf bucket
  const Histogram::Snapshot s = h.snapshot();
  ASSERT_EQ(s.buckets.size(), 4u);  // 3 bounds + the implicit +Inf
  EXPECT_EQ(s.buckets[0], 2u);
  EXPECT_EQ(s.buckets[1], 1u);
  EXPECT_EQ(s.buckets[2], 0u);
  EXPECT_EQ(s.buckets[3], 1u);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.sum, 0.5 + 1.0 + 1.5 + 10.0);
}

TEST(Histogram, MergesObservationsAcrossThreads) {
  Histogram h({1.0});
  constexpr int kThreads = 8;
  constexpr int kObsPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&h] {
      for (int i = 0; i < kObsPerThread; ++i) h.observe(0.5);
    });
  for (auto& t : threads) t.join();
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads) * kObsPerThread);
  EXPECT_EQ(s.buckets[0], s.count);
  EXPECT_NEAR(s.sum, 0.5 * static_cast<double>(s.count), 1e-6);
}

// The service's latency percentiles come from ratio-1.1 log buckets:
// over 1M samples each estimate stays within the bucket error (under 5%)
// of the exact order statistic, and the percentiles stay ordered.
TEST(Histogram, LogBucketQuantilesStayWithinTheBucketError) {
  const double ratio = 1.1;
  obs::Histogram h(obs::log_buckets(1e-7, 1e3, ratio));
  util::Rng rng(1992);
  std::vector<double> xs;
  xs.reserve(1'000'000);
  for (int i = 0; i < 1'000'000; ++i) {
    // Log-uniform from 10 µs to 1 s, with a 1% tail out to 100 s.
    const double decades = rng.next_bool(0.01) ? 7.0 : 5.0;
    const double x = 1e-5 * std::pow(10.0, decades * rng.next_double());
    xs.push_back(x);
    h.observe(x);
  }
  std::sort(xs.begin(), xs.end());
  const obs::Histogram::Snapshot snap = h.snapshot();
  ASSERT_EQ(snap.count, xs.size());
  const double tol = std::sqrt(ratio) - 1;
  ASSERT_LT(tol, 0.05);
  double prev = 0.0;
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    const double exact =
        xs[static_cast<std::size_t>(q * static_cast<double>(xs.size() - 1))];
    const double est =
        std::clamp(obs::bucket_quantile(snap, q), xs.front(), xs.back());
    EXPECT_LE(std::abs(est - exact), tol * exact * (1 + 1e-9)) << "q=" << q;
    EXPECT_LE(prev, est) << "q=" << q;
    prev = est;
  }
  EXPECT_LE(prev, xs.back());
  EXPECT_EQ(obs::bucket_quantile(obs::Histogram::Snapshot{}, 0.5), 0.0);
}

TEST(Registry, SameNameAndLabelsReturnsSameHandle) {
  Registry reg;
  Counter& a = reg.counter("x_total", "help", {{"k", "v"}});
  Counter& b = reg.counter("x_total", "help", {{"k", "v"}});
  EXPECT_EQ(&a, &b);
  Counter& c = reg.counter("x_total", "help", {{"k", "other"}});
  EXPECT_NE(&a, &c);
}

TEST(Registry, TypeConflictThrows) {
  Registry reg;
  reg.counter("x_total", "help");
  EXPECT_THROW(reg.gauge("x_total", "help"), std::logic_error);
  EXPECT_THROW(reg.histogram("x_total", "help", {1.0}), std::logic_error);
}

TEST(Registry, PrometheusExpositionFormat) {
  Registry reg;
  reg.counter("requests_total", "Requests.", {{"backend", "serial"}}).inc(3);
  reg.gauge("depth", "Queue depth.").set(2.0);
  Histogram& h =
      reg.histogram("latency_seconds", "Latency.", {0.1, 1.0});
  h.observe(0.05);
  h.observe(0.5);
  h.observe(5.0);
  const std::string text = reg.scrape();

  EXPECT_NE(text.find("# HELP requests_total Requests.\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE requests_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("requests_total{backend=\"serial\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("depth 2\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE latency_seconds histogram\n"),
            std::string::npos);
  // Cumulative buckets: le="1" includes the le="0.1" observation.
  EXPECT_NE(text.find("latency_seconds_bucket{le=\"0.1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("latency_seconds_bucket{le=\"1\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("latency_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("latency_seconds_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("latency_seconds_sum"), std::string::npos);
}

TEST(Registry, LabelValuesAreEscaped) {
  Registry reg;
  reg.counter("esc_total", "Escapes.", {{"k", "a\"b\\c\nd"}}).inc();
  const std::string text = reg.scrape();
  EXPECT_NE(text.find("esc_total{k=\"a\\\"b\\\\c\\nd\"} 1\n"),
            std::string::npos);
}

TEST(Registry, GaugeFnEvaluatedAtScrape) {
  Registry reg;
  double depth = 1.0;
  reg.gauge_fn("live_depth", "Scrape-time gauge.", [&depth] { return depth; });
  EXPECT_NE(reg.scrape().find("live_depth 1\n"), std::string::npos);
  depth = 7.0;
  EXPECT_NE(reg.scrape().find("live_depth 7\n"), std::string::npos);
}

// Scrape copies gauge_fn callbacks and runs them after releasing the
// registry mutex, so a callback may itself use the registry (register
// a metric, read another value) without deadlocking.
TEST(Registry, GaugeFnMayTouchRegistryDuringScrape) {
  Registry reg;
  Counter& seen = reg.counter("scrapes_seen_total", "Scrapes observed.");
  reg.gauge_fn("reentrant_depth", "Callback that touches the registry.",
               [&reg, &seen] {
                 seen.inc();
                 reg.counter("registered_from_callback_total",
                             "Registered mid-scrape.");
                 return static_cast<double>(seen.value());
               });
  const std::string text = reg.scrape();
  EXPECT_NE(text.find("reentrant_depth 1\n"), std::string::npos) << text;
  EXPECT_NE(reg.scrape().find("registered_from_callback_total 0\n"),
            std::string::npos);
}

TEST(Registry, GlobalIsSingleton) {
  EXPECT_EQ(&Registry::global(), &Registry::global());
}

TEST(StatsPublisher, PublishesPerBackendFamilies) {
  Registry reg;
  engine::StatsPublisher pub(&reg);
  engine::BackendStats d;
  d.requests = 1;
  d.accepted = 1;
  d.network.unary_evals = 10;
  d.network.masked_unary_decided = 5;
  d.network.binary_evals = 4;
  d.network.masked_binary_pairs = 3;
  d.network.eliminations = 2;
  d.consistency_iterations = 6;
  pub.publish(engine::Backend::Serial, d, 0.01);
  const std::string text = reg.scrape();
  EXPECT_NE(
      text.find(
          "parsec_requests_total{backend=\"serial\",status=\"accepted\"} 1\n"),
      std::string::npos);
  EXPECT_NE(text.find("parsec_effective_unary_evals_total{backend="
                      "\"serial\"} 15\n"),
            std::string::npos);
  // effective binary = binary_evals + 2 * masked_binary_pairs = 10.
  EXPECT_NE(text.find("parsec_effective_binary_evals_total{backend="
                      "\"serial\"} 10\n"),
            std::string::npos);
  EXPECT_NE(text.find("parsec_eliminations_total{backend=\"serial\"} 2\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("parsec_consistency_iterations_total{backend=\"serial\"} 6\n"),
      std::string::npos);
  // Latency histogram observed once for the serial backend.
  EXPECT_NE(text.find("parsec_parse_duration_seconds_count{backend="
                      "\"serial\"} 1\n"),
            std::string::npos);
  // The calibrated MasPar cost-model constants ride along in every
  // publisher's registry (scrapes are self-describing).
  EXPECT_NE(text.find("parsec_maspar_cost_t_instr_seconds"),
            std::string::npos);
  EXPECT_NE(text.find("parsec_maspar_cost_t_route_seconds"),
            std::string::npos);
}

TEST(StatsPublisher, MasparMachineCountersOnlyForMaspar) {
  Registry reg;
  engine::StatsPublisher pub(&reg);
  engine::BackendStats d;
  d.requests = 1;
  d.maspar.plural_ops = 100;
  d.maspar.scan_ops = 20;
  d.maspar.route_ops = 8;
  pub.publish(engine::Backend::Serial, d);  // wrong backend: not counted
  std::string text = reg.scrape();
  EXPECT_NE(text.find("parsec_maspar_plural_ops_total 0\n"),
            std::string::npos);
  pub.publish(engine::Backend::Maspar, d);
  text = reg.scrape();
  EXPECT_NE(text.find("parsec_maspar_plural_ops_total 100\n"),
            std::string::npos);
  EXPECT_NE(text.find("parsec_maspar_scan_ops_total 20\n"),
            std::string::npos);
  EXPECT_NE(text.find("parsec_maspar_route_ops_total 8\n"),
            std::string::npos);
}

}  // namespace
}  // namespace parsec::obs
