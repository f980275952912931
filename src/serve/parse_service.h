// Batched multi-sentence parse service.
//
// The paper parallelizes *within* one sentence (O(k + log n) steps on
// the MasPar); a parsing service also scales *across* sentences — the
// dimension real traffic arrives on.  ParseService drives a stream of
// independent parse requests through the existing engines on a
// fixed-size thread pool:
//
//   * multi-tenant grammars: requests name a grammar; a GrammarRegistry
//     resolves the name to an immutable precompiled snapshot *at
//     submit*, so a hot reload mid-batch never swaps a grammar under an
//     in-flight parse (the old epoch drains, new requests see the new
//     one) — see serve/grammar_registry.h;
//   * per-request backend selection (serial / pram / maspar / mesh);
//   * optional parse-result cache keyed by (tenant, epoch, sentence
//     hash) with single-flight coalescing of duplicate in-flight
//     requests — bit-identical by the engines' determinism contract
//     (serve/result_cache.h);
//   * per-tenant admission quotas (GrammarBundle::max_inflight) mapped
//     onto the Overloaded status;
//   * per-worker reusable scratch (arena-backed constraint-network
//     pools via Network::reinit; the arena carries domains, arcs and
//     truth masks) so steady-state parsing of repeating sentence
//     shapes is allocation-free on the hot path;
//   * per-request deadlines — an expired request returns a Timeout
//     response instead of stalling the queue (every backend aborts
//     mid-parse via cdg::CancelFn at its engine checkpoints);
//   * graceful degradation (PR 5, docs/ROBUSTNESS.md): worker-boundary
//     exception containment (BadRequest/Faulted instead of process
//     death), optional load shedding (Overloaded instead of blocking),
//     retry-with-fallback onto the serial backend (bit-identity
//     preserved — every backend reaches the same fixpoint), a
//     per-backend circuit breaker, and a stuck-worker watchdog;
//   * batched submission returning futures (or invoking callbacks) in
//     input order, so batch results are trivially ordered;
//   * aggregate ServiceStats: throughput, p50/p95/p99 latency, queue
//     depth, per-worker utilization, and per-backend work counters
//     rolled up from NetworkCounters / StepStats / MachineStats.
//
// Every parse is single-threaded and deterministic, so batched results
// are bit-identical to a single-threaded run of the same requests
// (ParseResponse::domains_hash; tests/serve verifies byte equality) —
// and, by the same contract, to a cache hit.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cdg/batch.h"
#include "cdg/lexicon.h"
#include "obs/metrics.h"
#include "parsec/backend.h"
#include "resil/circuit_breaker.h"
#include "resil/watchdog.h"
#include "serve/grammar_registry.h"
#include "serve/result_cache.h"
#include "serve/thread_pool.h"
#include "util/stats.h"

namespace parsec::serve {

enum class RequestStatus {
  Ok,            // parsed (accepted or rejected — see `accepted`)
  Timeout,       // deadline expired at submit, while queued, or mid-parse
  ShuttingDown,  // submitted after shutdown began
  BadRequest,    // unparseable input (unknown word, empty sentence,
                 // unknown grammar name)
  Overloaded,    // shed: queue full under Options::shed_load, or the
                 // tenant's admission quota exhausted
  Faulted,       // engine fault (injected or genuine) not recovered by
                 // the serial fallback; see ParseResponse::error
};

/// Number of RequestStatus values (the serve metrics family has one
/// disjoint counter per status; every submitted request lands in
/// exactly one).
inline constexpr std::size_t kNumRequestStatuses = 6;

const char* to_string(RequestStatus s);

struct ParseRequest {
  cdg::Sentence sentence;
  /// Raw, untagged words: when non-empty, the worker tags them with the
  /// resolved grammar's lexicon (or Options::lexicon) and `sentence` is
  /// ignored.  Unknown words (or a missing lexicon) degrade to
  /// BadRequest instead of throwing out of a pool thread.
  std::vector<std::string> words;
  /// Grammar (tenant) name resolved against the registry at submit;
  /// empty uses Options::default_grammar.  Unknown names answer
  /// BadRequest inline.
  std::string grammar;
  engine::Backend backend = engine::Backend::Serial;
  /// Relative deadline measured from submission; zero = none.  A
  /// negative deadline is already expired: submit() answers Timeout
  /// inline without dequeuing onto a worker.
  std::chrono::steady_clock::duration deadline{};
  /// Copy the final domain bitsets into the response (costly; for
  /// equivalence checks and debugging).
  bool capture_domains = false;
  /// Retry identity (0 = none).  Requests sharing a non-zero key are
  /// the *same logical request* retransmitted: the service treats the
  /// key as a single-flight handle — a duplicate arriving while the
  /// original is still parsing coalesces onto that execution, and one
  /// arriving after it completed Ok is served from the memoized result
  /// (`cached` set on the response either way).  Failed executions are
  /// not memoized, so retrying a failure re-executes.  Keys are scoped
  /// to (tenant, grammar epoch) like cache keys.
  std::uint64_t idempotency_key = 0;
};

struct ParseResponse {
  RequestStatus status = RequestStatus::Ok;
  bool accepted = false;
  std::size_t alive_role_values = 0;
  /// Backend-independent fingerprint of the final domains (identical
  /// to a single-threaded parse of the same sentence).
  std::uint64_t domains_hash = 0;
  std::vector<util::DynBitset> domains;  // iff capture_domains
  /// Backend that produced this response: the requested one, Serial
  /// when the service degraded (fallback retry / open circuit breaker),
  /// or — on a cache hit — whichever backend populated the entry (the
  /// result is bit-identical either way).
  engine::Backend served_backend = engine::Backend::Serial;
  /// True when the service degraded the request onto Serial.  The
  /// result is still bit-identical (same fixpoint), only the cost
  /// model differs — see docs/ROBUSTNESS.md.
  bool degraded = false;
  /// Served from the result cache without running an engine.
  bool cached = false;
  /// Waited on a concurrent duplicate's in-flight parse (single
  /// flight); implies `cached`.
  bool coalesced = false;
  /// Epoch of the grammar snapshot this request was pinned to at
  /// submit (0 when the request never resolved a grammar).
  std::uint64_t grammar_epoch = 0;
  /// Human-readable failure detail for BadRequest/Faulted.
  std::string error;
  int worker = -1;
  double queue_seconds = 0.0;  // submission -> dequeue
  double parse_seconds = 0.0;  // dequeue -> done
};

struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t accepted = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t rejected_at_submit = 0;  // after shutdown began
  std::uint64_t bad_requests = 0;        // BadRequest responses
  std::uint64_t overloaded = 0;          // shed at submit (queue full
                                         // or tenant quota)
  std::uint64_t faulted = 0;             // Faulted responses
  std::uint64_t fallback_retries = 0;    // serial retries attempted
  std::uint64_t fallback_ok = 0;         // serial retries that parsed Ok
  std::uint64_t breaker_trips = 0;       // circuit-breaker Open transitions
  std::uint64_t breaker_rerouted = 0;    // requests rerouted by open breaker
  std::uint64_t watchdog_stalls = 0;     // stuck workers cancelled
  /// SoA lane batching (Options::enable_batching): batches executed and
  /// requests served through them.  Mean occupancy is
  /// batched_requests / (batches * cdg::BatchParser::kLanes).
  std::uint64_t batches = 0;
  std::uint64_t batched_requests = 0;
  /// Result-cache counters (all zero when the cache is disabled).
  ResultCache::Stats cache;
  /// Idempotency-key single-flight counters (zero when disabled or no
  /// request carried a key).  `hits` = retries served from a completed
  /// execution; `coalesced` = retries that waited on the in-flight
  /// original instead of double-executing.
  ResultCache::Stats idempotency;
  double elapsed_seconds = 0.0;          // since service construction
  double throughput_sps = 0.0;           // completed / elapsed
  double latency_mean_ms = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_max_ms = 0.0;
  std::size_t queue_depth = 0;
  int threads = 0;
  std::vector<WorkerStats> workers;
  /// Indexed by static_cast<size_t>(engine::Backend).
  engine::BackendStats backends[engine::kNumBackends];
};

class ParseService {
 public:
  struct Options {
    /// Worker threads; <= 0 uses hardware_concurrency.
    int threads = 0;
    /// Bounded queue capacity (back-pressure on submitters).
    std::size_t queue_capacity = 256;
    /// Engine configuration for the single-grammar compat constructors
    /// (which publish the grammar into an owned registry).  Services
    /// built over an external registry take each bundle's options
    /// instead.  Defaults keep the MasPar engine at fixpoint filtering
    /// (bit-identical results).
    engine::EngineSetOptions engines;
    /// Metrics registry the service publishes into (request counters,
    /// latency histograms, per-backend cost counters — the name/label
    /// reference is docs/OBSERVABILITY.md).  Defaults to the
    /// process-wide registry; tests inject their own for isolation.
    /// Must outlive the service.
    obs::Registry* metrics = &obs::Registry::global();
    /// Fallback lexicon for tagging ParseRequest::words when the
    /// resolved grammar bundle carries none.  Null means raw-word
    /// requests against lexicon-less bundles degrade to BadRequest.
    /// Must outlive the service.
    const cdg::Lexicon* lexicon = nullptr;
    /// Name the single-grammar compat constructors publish under, and
    /// the grammar used when ParseRequest::grammar is empty.
    std::string default_grammar = "default";
    /// Parse-result cache with single-flight coalescing (off by
    /// default: single-shot workloads pay the bookkeeping without the
    /// hits).  See serve/result_cache.h for semantics.
    bool enable_result_cache = false;
    /// Max ready entries held by the cache (LRU eviction beyond this).
    std::size_t result_cache_capacity = 1024;
    /// Idempotency-key single-flight window: completed results are held
    /// under their request key (LRU, this many entries) so a retried
    /// request never double-executes.  Independent of the result cache
    /// (which keys on content, not request identity) and always on by
    /// default — requests without a key pay nothing.  0 disables.
    std::size_t idempotency_capacity = 4096;
    /// Shed load instead of blocking: submit() answers Overloaded when
    /// the queue is full rather than exerting back-pressure.
    bool shed_load = false;
    /// Retry a faulted/stalled request once on the Serial backend
    /// (bit-identical result, different cost model).
    bool retry_serial = true;
    /// Per-backend circuit breaker: a backend that faults repeatedly
    /// is bypassed (requests reroute to Serial) for a cooldown.
    bool enable_breaker = true;
    resil::CircuitBreaker::Options breaker{};
    /// SoA sentence batching for submit_batch / parse_batch (off by
    /// default): same-(grammar, length) groups of eligible requests are
    /// parsed together, up to cdg::BatchParser::kLanes sentences per
    /// SIMD tile sweep (see cdg/batch.h).  Eligible = Serial backend,
    /// pre-tagged sentence (no raw words), no deadline; everything else
    /// falls back to per-request submission.  Grouping is deterministic
    /// (input order; groups dispatch in first-appearance order) and
    /// results stay bit-identical to sequential parses (confluence) —
    /// only the cost counters reflect the lockstep schedule.  Batched
    /// groups bypass the result cache and the watchdog.
    bool enable_batching = false;
    /// Minimum lanes for a batch chunk to run through the BatchParser.
    /// A lockstep sweep costs nearly the same at any fill, so thin
    /// chunks (a group's tail after slicing into kLanes-sized pieces)
    /// are cheaper on the ordinary per-request path.  Chunks below the
    /// threshold fall back per-request; 1 batches everything eligible.
    std::size_t min_batch_lanes = 4;
    /// Cancel a worker stuck in one parse for longer than this
    /// (cooperative — engines poll at checkpoints).  Zero disables the
    /// watchdog.
    std::chrono::steady_clock::duration watchdog_stall{};
    std::chrono::steady_clock::duration watchdog_interval =
        std::chrono::milliseconds(20);
  };

  using Callback = std::function<void(ParseResponse)>;

  /// Single-grammar compat constructors: publish `grammar` (borrowed;
  /// must outlive the service) into an owned registry under
  /// Options::default_grammar.
  explicit ParseService(const cdg::Grammar& grammar);
  ParseService(const cdg::Grammar& grammar, Options opt);

  /// Multi-tenant constructor: serve every grammar in `registry`
  /// (which must outlive the service).  Grammars published after
  /// construction are served too — resolution happens per request.
  ParseService(GrammarRegistry& registry, Options opt);

  /// Drains outstanding requests, then joins the pool.
  ~ParseService();

  ParseService(const ParseService&) = delete;
  ParseService& operator=(const ParseService&) = delete;

  /// Enqueues one request; blocks while the queue is full.  The future
  /// is always satisfied — with status ShuttingDown if the service is
  /// stopping.
  std::future<ParseResponse> submit(ParseRequest req);

  /// Callback flavour: `cb` runs on the worker thread that parsed the
  /// request (or inline on the submitter when shutting down).
  void submit(ParseRequest req, Callback cb);

  /// Enqueues a whole batch; futures are in input order.
  std::vector<std::future<ParseResponse>> submit_batch(
      std::vector<ParseRequest> reqs);

  /// Convenience: submit a batch and wait; responses in input order.
  std::vector<ParseResponse> parse_batch(std::vector<ParseRequest> reqs);

  /// Initiates drain-then-join shutdown (idempotent; the destructor
  /// calls it too).
  void shutdown();

  ServiceStats stats() const;

  /// Prometheus text exposition of the service's registry (the one
  /// Options::metrics pointed at): everything `stats()` reports as a
  /// struct, in scrapeable form.  Thread-safe; may run concurrently
  /// with in-flight requests (counter/sum skew of the in-flight
  /// observations is possible, torn values are not).
  std::string metrics_text() const;

  /// The registry requests resolve against (owned on the compat path).
  GrammarRegistry& registry() { return *registry_; }
  const GrammarRegistry& registry() const { return *registry_; }

  /// The result cache, or null when disabled.
  const ResultCache* result_cache() const { return cache_.get(); }

  /// The idempotency-key single-flight cache, or null when disabled.
  const ResultCache* idempotency_cache() const { return idem_cache_.get(); }

  /// Default grammar's current snapshot (compat accessor; requires the
  /// default grammar to be published).
  const cdg::Grammar& grammar() const;

  int threads() const { return pool_->num_threads(); }

 private:
  /// Per-worker mutable state; only worker i touches scratch_[i].  The
  /// pooled networks carry their whole arenas (domains, arc matrices,
  /// truth masks) — allocated once per shape and reused across
  /// requests.  `pinned` keeps every snapshot with live
  /// pooled networks alive (a pooled network references its grammar);
  /// when a request arrives under a newer epoch of a tenant, the
  /// worker purges that tenant's retired networks and drops the pin.
  struct WorkerScratch {
    engine::NetworkScratch networks;
    std::unordered_map<const cdg::Grammar*, GrammarSnapshot> pinned;
    /// One reusable SoA batch parser per pinned grammar (its
    /// interleaved buffers persist across same-shape batches); purged
    /// together with the pooled networks on an epoch bump.
    std::unordered_map<const cdg::Grammar*, cdg::BatchParser> batchers;
  };

  /// Per-tenant admission + accounting state, created on first sight
  /// of the tenant at submit.
  struct TenantState {
    std::atomic<std::int64_t> inflight{0};
    /// Highest epoch seen at admission; a bump triggers cache
    /// invalidation of the tenant's retired entries.
    std::atomic<std::uint64_t> last_epoch{0};
    obs::Counter* requests = nullptr;  // parsec_serve_tenant_requests_total
  };

  /// One engine attempt (first try or serial fallback) for stats
  /// roll-up: which backend ran and what it cost.
  struct Attempt {
    engine::Backend backend = engine::Backend::Serial;
    engine::BackendStats delta;
  };

  /// Shared delegate: `compat_grammar` (single-grammar compat path,
  /// published into an owned registry) or `external` registry.
  ParseService(const cdg::Grammar* compat_grammar, GrammarRegistry* external,
               Options opt);

  /// Resolves the request's grammar and enforces the tenant quota.
  /// Returns false after filling `resp` for an inline answer
  /// (BadRequest / Overloaded).
  bool admit(const ParseRequest& req, GrammarSnapshot& snap,
             std::shared_ptr<TenantState>& tenant, ParseResponse& resp);

  void run_request(int worker, ParseRequest req, GrammarSnapshot snap,
                   std::shared_ptr<TenantState> tenant,
                   std::chrono::steady_clock::time_point submitted,
                   std::promise<ParseResponse> promise, Callback cb);

  /// One admitted member of an SoA batch group (Options::enable_batching).
  struct BatchItem {
    ParseRequest req;
    GrammarSnapshot snap;
    std::shared_ptr<TenantState> tenant;
    std::promise<ParseResponse> promise;
  };
  /// Parses one same-(grammar, length) group on a pool worker via the
  /// worker's pooled BatchParser and answers every member's promise.
  void run_batch(int worker, std::vector<BatchItem> items,
                 std::chrono::steady_clock::time_point submitted);
  void record(const ParseResponse& resp,
              const std::vector<Attempt>& attempts);
  /// Accounts a request that never reached a worker (rejected,
  /// overloaded, pre-expired, or unknown grammar at submit) in the
  /// serve-level exactly-once status family and the service counters.
  void record_at_submit(const ParseResponse& resp);

  /// Owned registry for the single-grammar compat constructors; null
  /// when the service serves an external registry.
  std::unique_ptr<GrammarRegistry> owned_registry_;
  GrammarRegistry* registry_ = nullptr;
  Options opt_;
  std::unique_ptr<ResultCache> cache_;  // null when disabled
  /// Single-flight dedup of retried requests, keyed on the request's
  /// idempotency key instead of the sentence hash.  A separate
  /// ResultCache instance so the two key spaces cannot collide (no
  /// metrics registry: its counters surface via ServiceStats).
  std::unique_ptr<ResultCache> idem_cache_;  // null when disabled
  /// Handles into opt_.metrics, resolved once at construction; updates
  /// in record() are lock-free (see obs/metrics.h).  The queue-depth
  /// gauge is refreshed on record()/stats() rather than registered as a
  /// scrape-time callback so the registry never holds a callback into a
  /// destroyed service.
  engine::StatsPublisher publisher_;
  obs::Counter* timeouts_total_;
  obs::Counter* rejected_at_submit_total_;
  obs::Histogram* queue_wait_seconds_;
  obs::Gauge* queue_depth_gauge_;
  /// parsec_serve_requests_total{status=...}: one disjoint counter per
  /// RequestStatus; every submitted request is counted exactly once.
  obs::Counter* serve_status_[kNumRequestStatuses];
  obs::Counter* fallback_retries_total_;
  obs::Counter* fallback_ok_total_;
  obs::Counter* breaker_trips_total_;
  obs::Counter* breaker_rerouted_total_;
  obs::Counter* watchdog_stalls_total_;
  obs::Counter* batches_total_;
  obs::Counter* batched_requests_total_;
  std::chrono::steady_clock::time_point start_;
  /// One breaker per backend (Serial's is never consulted — it is the
  /// degradation target, not a degradable source).
  resil::CircuitBreaker breakers_[engine::kNumBackends];
  std::unique_ptr<resil::Watchdog> watchdog_;  // null when disabled
  std::vector<WorkerScratch> scratch_;
  mutable std::mutex tenants_mutex_;
  std::unordered_map<int, std::shared_ptr<TenantState>> tenants_;
  std::unique_ptr<ThreadPool> pool_;  // last member: dies first

  mutable std::mutex stats_mutex_;
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t accepted_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t rejected_at_submit_ = 0;
  std::uint64_t bad_requests_ = 0;
  std::uint64_t overloaded_ = 0;
  std::uint64_t faulted_ = 0;
  std::uint64_t fallback_retries_ = 0;
  std::uint64_t fallback_ok_ = 0;
  std::uint64_t breaker_rerouted_ = 0;
  std::uint64_t watchdog_stalls_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t batched_requests_ = 0;
  util::Stats latency_;  // seconds, submission -> completion
  // The same samples, log-bucketed for the percentiles: observed
  // lock-free, O(buckets) to read however long the service has run.
  obs::Histogram latency_buckets_{obs::log_buckets(1e-7, 1e3, 1.1)};
  engine::BackendStats backend_stats_[engine::kNumBackends];
};

}  // namespace parsec::serve
