#include "serve/parse_service.h"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <utility>

#include "obs/trace.h"
#include "resil/fault_plan.h"

namespace parsec::serve {

using clock = std::chrono::steady_clock;

const char* to_string(RequestStatus s) {
  switch (s) {
    case RequestStatus::Ok:
      return "ok";
    case RequestStatus::Timeout:
      return "timeout";
    case RequestStatus::ShuttingDown:
      return "shutting-down";
    case RequestStatus::BadRequest:
      return "bad-request";
    case RequestStatus::Overloaded:
      return "overloaded";
    case RequestStatus::Faulted:
      return "faulted";
  }
  return "?";
}

ParseService::ParseService(const cdg::Grammar& grammar)
    : ParseService(grammar, Options()) {}

ParseService::ParseService(const cdg::Grammar& grammar, Options opt)
    : ParseService(&grammar, nullptr, std::move(opt)) {}

ParseService::ParseService(GrammarRegistry& registry, Options opt)
    : ParseService(nullptr, &registry, std::move(opt)) {}

ParseService::ParseService(const cdg::Grammar* compat_grammar,
                           GrammarRegistry* external, Options opt)
    : registry_(external),
      opt_(std::move(opt)),
      cache_(opt_.enable_result_cache
                 ? std::make_unique<ResultCache>(opt_.result_cache_capacity,
                                                 opt_.metrics)
                 : nullptr),
      idem_cache_(opt_.idempotency_capacity > 0
                      ? std::make_unique<ResultCache>(
                            opt_.idempotency_capacity, nullptr)
                      : nullptr),
      publisher_(opt_.metrics),
      timeouts_total_(&opt_.metrics->counter(
          "parsec_serve_timeouts_total",
          "Requests answered Timeout (expired at submit, queued, or "
          "mid-parse).")),
      rejected_at_submit_total_(&opt_.metrics->counter(
          "parsec_serve_rejected_at_submit_total",
          "Requests refused because shutdown had begun.")),
      queue_wait_seconds_(&opt_.metrics->histogram(
          "parsec_serve_queue_wait_seconds",
          "Time a request spent queued before a worker dequeued it.",
          obs::default_latency_buckets_seconds())),
      queue_depth_gauge_(&opt_.metrics->gauge(
          "parsec_serve_queue_depth",
          "Requests waiting in the pool queue (sampled at record/stats).")),
      fallback_retries_total_(&opt_.metrics->counter(
          "parsec_resil_fallback_retries_total",
          "Faulted/stalled requests retried on the Serial backend.")),
      fallback_ok_total_(&opt_.metrics->counter(
          "parsec_resil_fallback_ok_total",
          "Serial fallback retries that completed Ok.")),
      breaker_trips_total_(&opt_.metrics->counter(
          "parsec_resil_breaker_trips_total",
          "Circuit-breaker transitions to Open (any backend).")),
      breaker_rerouted_total_(&opt_.metrics->counter(
          "parsec_resil_breaker_rerouted_total",
          "Requests rerouted to Serial by an open circuit breaker.")),
      watchdog_stalls_total_(&opt_.metrics->counter(
          "parsec_resil_watchdog_stalls_total",
          "Stuck workers cancelled by the watchdog.")),
      batches_total_(&opt_.metrics->counter(
          "parsec_serve_batches_total",
          "SoA lane batches executed (same-shape Serial requests grouped "
          "by submit_batch under enable_batching).")),
      batched_requests_total_(&opt_.metrics->counter(
          "parsec_serve_batched_requests_total",
          "Requests served through an SoA lane batch; mean occupancy is "
          "this over batches * lanes.")),
      start_(clock::now()) {
  if (compat_grammar) {
    // Single-grammar compat: publish the borrowed grammar into an
    // owned registry under the default name (epoch 1).
    owned_registry_ = std::make_unique<GrammarRegistry>();
    GrammarRegistry::PublishOptions popt;
    popt.engines = opt_.engines;
    owned_registry_->publish_borrowed(opt_.default_grammar, *compat_grammar,
                                      opt_.lexicon, popt);
    registry_ = owned_registry_.get();
  }
  // One disjoint status counter per RequestStatus: every submitted
  // request lands in exactly one (the exactly-once invariant the chaos
  // tests assert).
  static constexpr RequestStatus kStatuses[kNumRequestStatuses] = {
      RequestStatus::Ok,          RequestStatus::Timeout,
      RequestStatus::ShuttingDown, RequestStatus::BadRequest,
      RequestStatus::Overloaded,  RequestStatus::Faulted};
  for (std::size_t i = 0; i < kNumRequestStatuses; ++i)
    serve_status_[static_cast<std::size_t>(kStatuses[i])] =
        &opt_.metrics->counter(
            "parsec_serve_requests_total",
            "Requests by final status; statuses are disjoint and each "
            "submitted request is counted exactly once.",
            {{"status", to_string(kStatuses[i])}});
  for (auto& b : breakers_) b.configure(opt_.breaker);
  pool_ = std::make_unique<ThreadPool>(opt_.threads, opt_.queue_capacity);
  scratch_.resize(static_cast<std::size_t>(pool_->num_threads()));
  if (opt_.watchdog_stall.count() > 0) {
    resil::Watchdog::Options wopts;
    wopts.stall_after = opt_.watchdog_stall;
    wopts.interval = opt_.watchdog_interval;
    watchdog_ = std::make_unique<resil::Watchdog>(
        static_cast<std::size_t>(pool_->num_threads()), wopts);
  }
}

ParseService::~ParseService() { shutdown(); }

void ParseService::shutdown() { pool_->shutdown(); }

const cdg::Grammar& ParseService::grammar() const {
  GrammarSnapshot snap = registry_->snapshot(opt_.default_grammar);
  if (!snap)
    throw std::logic_error("ParseService::grammar(): default grammar '" +
                           opt_.default_grammar + "' is not published");
  // The registry keeps the bundle alive (entries hold shared_ptrs);
  // the reference is valid until that entry is republished.
  return snap->grammar();
}

bool ParseService::admit(const ParseRequest& req, GrammarSnapshot& snap,
                         std::shared_ptr<TenantState>& tenant,
                         ParseResponse& resp) {
  const std::string& name =
      req.grammar.empty() ? opt_.default_grammar : req.grammar;
  snap = registry_->snapshot(name);
  if (!snap) {
    resp.status = RequestStatus::BadRequest;
    resp.error = "unknown grammar: " + name;
    return false;
  }
  resp.grammar_epoch = snap->epoch();
  {
    std::lock_guard lock(tenants_mutex_);
    auto& slot = tenants_[snap->tenant_id()];
    if (!slot) {
      slot = std::make_shared<TenantState>();
      slot->requests = &opt_.metrics->counter(
          "parsec_serve_tenant_requests_total",
          "Requests per grammar (tenant), counted at admission.",
          {{"tenant", snap->name()}});
    }
    tenant = slot;
  }
  tenant->requests->inc();
  // Epoch-bump invalidation: the first request admitted under a new
  // epoch drops the tenant's retired cache entries.  (The epoch in the
  // cache key already makes them unreachable; this frees the memory.)
  if (cache_) {
    std::uint64_t prev = tenant->last_epoch.load(std::memory_order_relaxed);
    if (snap->epoch() > prev &&
        tenant->last_epoch.compare_exchange_strong(
            prev, snap->epoch(), std::memory_order_relaxed)) {
      cache_->invalidate_tenant(snap->tenant_id(), snap->epoch());
    }
  }
  // Admission quota: hold an inflight slot from here until the request
  // completes (run_request) or is rejected (submit's failure paths).
  const std::size_t quota = snap->max_inflight();
  const std::int64_t in =
      tenant->inflight.fetch_add(1, std::memory_order_acq_rel);
  if (quota > 0 && static_cast<std::size_t>(in) >= quota) {
    tenant->inflight.fetch_sub(1, std::memory_order_acq_rel);
    resp.status = RequestStatus::Overloaded;
    resp.error = "tenant quota exhausted: " + name;
    return false;
  }
  return true;
}

std::future<ParseResponse> ParseService::submit(ParseRequest req) {
  auto promise = std::make_shared<std::promise<ParseResponse>>();
  std::future<ParseResponse> future = promise->get_future();
  const auto submitted = clock::now();
  {
    std::lock_guard lock(stats_mutex_);
    ++submitted_;
  }
  GrammarSnapshot snap;
  std::shared_ptr<TenantState> tenant;
  ParseResponse resp;
  if (!admit(req, snap, tenant, resp)) {
    record_at_submit(resp);
    promise->set_value(std::move(resp));
    return future;
  }
  if (req.deadline.count() < 0) {
    // Pre-expired deadline: answer Timeout inline; no worker ever
    // dequeues it and no backend runs.
    tenant->inflight.fetch_sub(1, std::memory_order_acq_rel);
    resp.status = RequestStatus::Timeout;
    record_at_submit(resp);
    promise->set_value(std::move(resp));
    return future;
  }
  auto job = [this, req = std::move(req), snap = std::move(snap), tenant,
              submitted, promise](int worker) mutable {
    run_request(worker, std::move(req), std::move(snap), std::move(tenant),
                submitted, std::move(*promise), nullptr);
  };
  const bool posted =
      opt_.shed_load ? pool_->try_post(std::move(job))
                     : pool_->post(std::move(job));
  if (!posted) {
    // Queue full (shedding) or shutdown raced the submission; the
    // lambda was dropped, but we still hold the promise — satisfy the
    // future inline.
    tenant->inflight.fetch_sub(1, std::memory_order_acq_rel);
    resp.status = pool_->shutting_down() ? RequestStatus::ShuttingDown
                                         : RequestStatus::Overloaded;
    record_at_submit(resp);
    promise->set_value(std::move(resp));
  }
  return future;
}

void ParseService::submit(ParseRequest req, Callback cb) {
  const auto submitted = clock::now();
  {
    std::lock_guard lock(stats_mutex_);
    ++submitted_;
  }
  GrammarSnapshot snap;
  std::shared_ptr<TenantState> tenant;
  ParseResponse resp;
  if (!admit(req, snap, tenant, resp)) {
    record_at_submit(resp);
    if (cb) cb(std::move(resp));
    return;
  }
  if (req.deadline.count() < 0) {
    tenant->inflight.fetch_sub(1, std::memory_order_acq_rel);
    resp.status = RequestStatus::Timeout;
    record_at_submit(resp);
    if (cb) cb(std::move(resp));
    return;
  }
  // The callback is shared with the job rather than moved into it: a
  // failed post drops the job, and the rejection path below must still
  // be able to invoke it.
  auto shared_cb = std::make_shared<Callback>(std::move(cb));
  auto job = [this, req = std::move(req), snap = std::move(snap), tenant,
              submitted, shared_cb](int worker) mutable {
    run_request(worker, std::move(req), std::move(snap), std::move(tenant),
                submitted, std::promise<ParseResponse>{},
                std::move(*shared_cb));
  };
  const bool posted =
      opt_.shed_load ? pool_->try_post(std::move(job))
                     : pool_->post(std::move(job));
  if (!posted) {
    tenant->inflight.fetch_sub(1, std::memory_order_acq_rel);
    resp.status = pool_->shutting_down() ? RequestStatus::ShuttingDown
                                         : RequestStatus::Overloaded;
    record_at_submit(resp);
    if (*shared_cb) (*shared_cb)(std::move(resp));
  }
}

std::vector<std::future<ParseResponse>> ParseService::submit_batch(
    std::vector<ParseRequest> reqs) {
  if (!opt_.enable_batching) {
    std::vector<std::future<ParseResponse>> futures;
    futures.reserve(reqs.size());
    for (auto& r : reqs) futures.push_back(submit(std::move(r)));
    return futures;
  }

  // SoA grouping: walk the batch in input order; an eligible request
  // joins the group of its resolved (grammar snapshot, length), groups
  // dispatch in first-appearance order sliced into kLanes-sized
  // chunks.  Deterministic by construction — no timing enters the
  // grouping decision.  Ineligible requests (non-Serial backend, raw
  // words needing a lexicon, a deadline, an empty sentence) take the
  // ordinary per-request path; the future at their input index is
  // satisfied the same way either way.
  const auto submitted = clock::now();
  std::vector<std::future<ParseResponse>> futures(reqs.size());
  struct Group {
    const cdg::Grammar* grammar;
    std::size_t length;
    std::vector<BatchItem> items;
  };
  std::vector<Group> groups;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    ParseRequest& r = reqs[i];
    const bool eligible = r.backend == engine::Backend::Serial &&
                          r.words.empty() && r.deadline.count() == 0 &&
                          r.sentence.size() > 0;
    if (!eligible) {
      futures[i] = submit(std::move(r));
      continue;
    }
    {
      std::lock_guard lock(stats_mutex_);
      ++submitted_;
    }
    std::promise<ParseResponse> promise;
    futures[i] = promise.get_future();
    GrammarSnapshot snap;
    std::shared_ptr<TenantState> tenant;
    ParseResponse resp;
    if (!admit(r, snap, tenant, resp)) {
      record_at_submit(resp);
      promise.set_value(std::move(resp));
      continue;
    }
    const cdg::Grammar* g = &snap->grammar();
    const std::size_t len = r.sentence.size();
    Group* grp = nullptr;
    for (Group& cand : groups)
      if (cand.grammar == g && cand.length == len) {
        grp = &cand;
        break;
      }
    if (!grp) {
      groups.push_back({g, len, {}});
      grp = &groups.back();
    }
    grp->items.push_back(
        {std::move(r), std::move(snap), std::move(tenant), std::move(promise)});
  }

  const std::size_t min_lanes =
      std::max<std::size_t>(1, opt_.min_batch_lanes);
  for (Group& grp : groups) {
    for (std::size_t off = 0; off < grp.items.size();
         off += cdg::BatchParser::kLanes) {
      const std::size_t end =
          std::min(off + cdg::BatchParser::kLanes, grp.items.size());
      if (end - off < min_lanes) {
        // Thin tail chunk: a lockstep sweep costs nearly the same at
        // any fill, so below the threshold the per-request path wins.
        for (std::size_t k = off; k < end; ++k) {
          BatchItem& it = grp.items[k];
          const std::uint64_t epoch = it.snap->epoch();
          auto promise =
              std::make_shared<std::promise<ParseResponse>>(
                  std::move(it.promise));
          auto job = [this, req = std::move(it.req),
                      snap = std::move(it.snap), tenant = it.tenant,
                      submitted, promise](int worker) mutable {
            run_request(worker, std::move(req), std::move(snap),
                        std::move(tenant), submitted, std::move(*promise),
                        nullptr);
          };
          const bool posted = opt_.shed_load
                                  ? pool_->try_post(std::move(job))
                                  : pool_->post(std::move(job));
          if (!posted) {
            it.tenant->inflight.fetch_sub(1, std::memory_order_acq_rel);
            ParseResponse resp;
            resp.grammar_epoch = epoch;
            resp.status = pool_->shutting_down()
                              ? RequestStatus::ShuttingDown
                              : RequestStatus::Overloaded;
            record_at_submit(resp);
            promise->set_value(std::move(resp));
          }
        }
        continue;
      }
      // The chunk rides in a shared_ptr: the pool's job type requires a
      // copyable callable, and promises are move-only.
      auto chunk = std::make_shared<std::vector<BatchItem>>(
          std::make_move_iterator(grp.items.begin() +
                                  static_cast<std::ptrdiff_t>(off)),
          std::make_move_iterator(grp.items.begin() +
                                  static_cast<std::ptrdiff_t>(end)));
      auto job = [this, chunk, submitted](int worker) mutable {
        run_batch(worker, std::move(*chunk), submitted);
      };
      const bool posted = opt_.shed_load ? pool_->try_post(std::move(job))
                                         : pool_->post(std::move(job));
      if (!posted) {
        for (BatchItem& it : *chunk) {
          it.tenant->inflight.fetch_sub(1, std::memory_order_acq_rel);
          ParseResponse resp;
          resp.grammar_epoch = it.snap->epoch();
          resp.status = pool_->shutting_down() ? RequestStatus::ShuttingDown
                                               : RequestStatus::Overloaded;
          record_at_submit(resp);
          it.promise.set_value(std::move(resp));
        }
      }
    }
  }
  return futures;
}

void ParseService::run_batch(int worker, std::vector<BatchItem> items,
                             clock::time_point submitted) {
  const auto dequeued = clock::now();
  // One batch-root span per executed batch (the lane count is the
  // occupancy a trace analysis reads off).
  obs::Span batch_span("serve.batch", "serve");
  GrammarSnapshot& snap = items.front().snap;
  WorkerScratch& ws = scratch_[static_cast<std::size_t>(worker)];
  // Pin the snapshot and retire older epochs of the tenant — same
  // contract as run_request; the pooled BatchParser references the
  // grammar too.
  for (auto it = ws.pinned.begin(); it != ws.pinned.end();) {
    if (it->second->tenant_id() == snap->tenant_id() &&
        it->second->epoch() < snap->epoch()) {
      ws.networks.purge(it->first);
      ws.batchers.erase(it->first);
      it = ws.pinned.erase(it);
    } else {
      ++it;
    }
  }
  ws.pinned[&snap->grammar()] = snap;
  cdg::BatchParser& parser =
      ws.batchers.try_emplace(&snap->grammar(), snap->grammar())
          .first->second;

  std::vector<cdg::Sentence> sentences;
  sentences.reserve(items.size());
  bool capture_any = false;
  for (const BatchItem& it : items) {
    sentences.push_back(it.req.sentence);
    capture_any |= it.req.capture_domains;
  }

  // A throwing batch faults every lane: the interleaved arena is one
  // shared execution, so per-lane recovery would re-run sequentially —
  // callers that need fault isolation submit without batching.
  std::vector<engine::BackendRun> runs;
  std::string error;
  try {
    runs = engine::run_backend_batch(parser, sentences, capture_any);
  } catch (const std::exception& e) {
    error = e.what();
  }

  batches_total_->inc();
  batched_requests_total_->inc(static_cast<std::uint64_t>(items.size()));
  {
    std::lock_guard lock(stats_mutex_);
    ++batches_;
    batched_requests_ += items.size();
  }

  const double queue_seconds =
      std::chrono::duration<double>(dequeued - submitted).count();
  const double parse_seconds =
      std::chrono::duration<double>(clock::now() - dequeued).count();
  for (std::size_t k = 0; k < items.size(); ++k) {
    BatchItem& it = items[k];
    it.tenant->inflight.fetch_sub(1, std::memory_order_acq_rel);
    ParseResponse resp;
    resp.worker = worker;
    resp.grammar_epoch = it.snap->epoch();
    resp.served_backend = engine::Backend::Serial;
    resp.queue_seconds = queue_seconds;
    resp.parse_seconds = parse_seconds;
    std::vector<Attempt> attempts;
    if (!error.empty()) {
      resp.status = RequestStatus::Faulted;
      resp.error = error;
      engine::BackendStats d;
      d.requests = 1;
      d.faulted = 1;
      attempts.push_back({engine::Backend::Serial, d});
    } else {
      engine::BackendRun& run = runs[k];
      resp.status = RequestStatus::Ok;
      resp.accepted = run.accepted;
      resp.alive_role_values = run.alive_role_values;
      resp.domains_hash = run.domains_hash;
      if (it.req.capture_domains) resp.domains = std::move(run.domains);
      attempts.push_back({engine::Backend::Serial, run.stats});
    }
    record(resp, attempts);
    it.promise.set_value(std::move(resp));
  }
  if (batch_span.active()) {
    batch_span.arg("lanes", static_cast<std::int64_t>(items.size()));
    batch_span.arg("n", static_cast<std::int64_t>(sentences[0].size()));
    batch_span.arg("tenant", static_cast<std::int64_t>(snap->tenant_id()));
    batch_span.arg("faulted",
                   static_cast<std::int64_t>(error.empty() ? 0 : 1));
  }
}

std::vector<ParseResponse> ParseService::parse_batch(
    std::vector<ParseRequest> reqs) {
  auto futures = submit_batch(std::move(reqs));
  std::vector<ParseResponse> out;
  out.reserve(futures.size());
  for (auto& f : futures) out.push_back(f.get());
  return out;
}

void ParseService::run_request(int worker, ParseRequest req,
                               GrammarSnapshot snap,
                               std::shared_ptr<TenantState> tenant,
                               clock::time_point submitted,
                               std::promise<ParseResponse> promise,
                               Callback cb) {
  const auto dequeued = clock::now();
  // Request-root span: when a TraceSession is active, every serviced
  // request contributes one `serve.request` span enclosing its
  // `backend.*` envelope (and, through it, the engine phase spans), so
  // the offline analyzer (src/analyze) can reconstruct the
  // request -> envelope -> phase graph and attribute queue wait vs
  // parse time per request.  Phase-grained: exactly one span per
  // request, inactive-session cost one relaxed load.
  obs::Span request_span("serve.request", "serve");
  ParseResponse resp;
  resp.worker = worker;
  resp.queue_seconds =
      std::chrono::duration<double>(dequeued - submitted).count();
  resp.grammar_epoch = snap->epoch();

  const bool has_deadline = req.deadline.count() > 0;
  const auto deadline_at = submitted + req.deadline;
  std::vector<Attempt> attempts;

  // One engine attempt; classifies the outcome at the worker boundary
  // so no exception escapes onto the pool thread.
  enum class Outcome { kOk, kCancelled, kStall, kFault, kBad };
  struct Once {
    Outcome kind = Outcome::kOk;
    engine::BackendRun run;
    std::string error;
  };
  resil::Watchdog::Slot* slot =
      watchdog_ ? &watchdog_->begin(static_cast<std::size_t>(worker))
                : nullptr;
  auto run_once = [&](engine::Backend backend) -> Once {
    Once o;
    if (slot) slot->cancel.store(false, std::memory_order_relaxed);
    cdg::CancelFn cancel;
    if (has_deadline && slot)
      cancel = [deadline_at, slot] {
        return slot->cancel.load(std::memory_order_relaxed) ||
               clock::now() >= deadline_at;
      };
    else if (has_deadline)
      cancel = [deadline_at] { return clock::now() >= deadline_at; };
    else if (slot)
      cancel = [slot] {
        return slot->cancel.load(std::memory_order_relaxed);
      };
    WorkerScratch& scratch = scratch_[static_cast<std::size_t>(worker)];
    try {
      o.run = engine::run_backend(snap->engines(), backend, req.sentence,
                                  &scratch.networks, cancel,
                                  req.capture_domains);
      if (o.run.cancelled) {
        // Attribute the abort: watchdog stall vs. deadline expiry.
        const bool stalled =
            slot && slot->cancel.load(std::memory_order_relaxed) &&
            !(has_deadline && clock::now() >= deadline_at);
        o.kind = stalled ? Outcome::kStall : Outcome::kCancelled;
      }
    } catch (const resil::InjectedFault& e) {
      o.kind = Outcome::kFault;
      o.error = e.what();
    } catch (const std::invalid_argument& e) {
      o.kind = Outcome::kBad;
      o.error = e.what();
    } catch (const std::out_of_range& e) {
      o.kind = Outcome::kBad;
      o.error = e.what();
    } catch (const std::exception& e) {
      o.kind = Outcome::kFault;
      o.error = e.what();
    }
    return o;
  };
  // Engine-stats delta for one attempt.  A throwing engine never filled
  // its counters; charge the request and mark it faulted so the engine
  // family stays exactly-once too.
  auto delta_of = [](const Once& o) {
    engine::BackendStats d = o.run.stats;
    if (d.requests == 0) d.requests = 1;
    if (o.kind == Outcome::kFault || o.kind == Outcome::kStall) {
      d.faulted = 1;
      d.cancelled = 0;
      d.accepted = 0;
    }
    return d;
  };

  bool rerouted = false;
  std::uint64_t local_breaker_trips = 0;
  std::uint64_t local_fallback_retries = 0;
  std::uint64_t local_fallback_ok = 0;
  std::uint64_t local_stalls = 0;

  // Span arg: which cache path served the request.
  // 0 = cache disabled/not consulted, 1 = miss (single-flight leader),
  // 2 = hit, 3 = coalesced, 4 = domain-upgrade bypass, 5 = coalesced
  // wait expired; 6/7/8 = the same hit/coalesced/wait-expired outcomes
  // on the idempotency key instead of the sentence hash.
  std::int64_t cache_code = 0;
  bool served_from_cache = false;
  ResultCache::Ticket ticket;  // abandons on scope exit unless filled
  bool bypass_upgrade = false;
  ResultCache::Key ckey;
  // Idempotency single flight: a retransmit of the same logical
  // request (same non-zero key) must not double-execute.  Held and
  // filled like the content-cache ticket, but keyed on request
  // identity, so it dedups retries whose responses were lost in
  // flight — something the sentence-hash cache can't promise when
  // caching is disabled or the entry was evicted.
  ResultCache::Ticket iticket;
  bool idem_bypass = false;
  ResultCache::Key ikey;

  Once once;
  if (has_deadline && dequeued >= deadline_at) {
    // Expired while queued: answer without parsing.  Counted as one
    // cancelled engine request so the engine family accounts it too.
    once.kind = Outcome::kCancelled;
    engine::BackendStats d;
    d.requests = 1;
    d.cancelled = 1;
    attempts.push_back({req.backend, d});
    resp.served_backend = req.backend;
  } else {
    // Raw-word requests are tagged here, inside the worker boundary,
    // so an unknown word degrades to BadRequest instead of throwing on
    // a pool thread.  The resolved bundle's lexicon wins; the service
    // fallback covers borrowed bundles published without one.
    bool tagged_ok = true;
    if (!req.words.empty()) {
      const cdg::Lexicon* lexicon =
          snap->lexicon() ? snap->lexicon() : opt_.lexicon;
      if (lexicon == nullptr) {
        once.kind = Outcome::kBad;
        once.error = "no lexicon configured for raw-word requests";
        tagged_ok = false;
      } else {
        try {
          req.sentence = lexicon->tag(req.words);
        } catch (const std::out_of_range& e) {
          once.kind = Outcome::kBad;
          once.error = e.what();
          tagged_ok = false;
        } catch (const std::invalid_argument& e) {
          once.kind = Outcome::kBad;
          once.error = e.what();
          tagged_ok = false;
        }
      }
    }
    bool run_engine = tagged_ok;
    if (tagged_ok && idem_cache_ && req.idempotency_key != 0) {
      ikey = {snap->tenant_id(), snap->epoch(), req.idempotency_key};
      ResultCache::LookupResult lookup = idem_cache_->acquire(
          ikey, req.capture_domains,
          has_deadline ? deadline_at : clock::time_point::max());
      switch (lookup.outcome) {
        case ResultCache::Outcome::Hit:
        case ResultCache::Outcome::Coalesced:
          // A retry of an already-executed request: replay the
          // memoized response instead of parsing again.
          resp.status = RequestStatus::Ok;
          resp.accepted = lookup.payload->accepted;
          resp.alive_role_values = lookup.payload->alive_role_values;
          resp.domains_hash = lookup.payload->domains_hash;
          if (req.capture_domains && lookup.payload->has_domains)
            resp.domains = lookup.payload->domains;
          resp.served_backend = lookup.payload->parsed_on;
          resp.cached = true;
          resp.coalesced =
              lookup.outcome == ResultCache::Outcome::Coalesced;
          served_from_cache = true;
          run_engine = false;
          cache_code = resp.coalesced ? 7 : 6;
          break;
        case ResultCache::Outcome::WaitExpired:
          once.kind = Outcome::kCancelled;
          {
            engine::BackendStats d;
            d.requests = 1;
            d.cancelled = 1;
            attempts.push_back({req.backend, d});
          }
          resp.served_backend = req.backend;
          run_engine = false;
          cache_code = 8;
          break;
        case ResultCache::Outcome::MissLeader:
          iticket = std::move(lookup.ticket);
          break;
        case ResultCache::Outcome::Bypass:
          idem_bypass = true;
          break;
      }
    }
    if (run_engine && cache_) {
      // Cache transaction.  The key pins (tenant, epoch, tagged
      // sentence); by the engines' determinism contract the payload is
      // bit-identical to the parse this request would have run.
      ckey = {snap->tenant_id(), snap->epoch(),
              engine::hash_sentence(req.sentence)};
      ResultCache::LookupResult lookup = cache_->acquire(
          ckey, req.capture_domains,
          has_deadline ? deadline_at : clock::time_point::max());
      switch (lookup.outcome) {
        case ResultCache::Outcome::Hit:
        case ResultCache::Outcome::Coalesced:
          resp.status = RequestStatus::Ok;
          resp.accepted = lookup.payload->accepted;
          resp.alive_role_values = lookup.payload->alive_role_values;
          resp.domains_hash = lookup.payload->domains_hash;
          if (req.capture_domains && lookup.payload->has_domains)
            resp.domains = lookup.payload->domains;
          resp.served_backend = lookup.payload->parsed_on;
          resp.cached = true;
          resp.coalesced =
              lookup.outcome == ResultCache::Outcome::Coalesced;
          served_from_cache = true;
          run_engine = false;
          cache_code = resp.coalesced ? 3 : 2;
          break;
        case ResultCache::Outcome::WaitExpired:
          // Deadline expired while coalesced on the leader's parse:
          // same accounting as a queue-expired request.
          once.kind = Outcome::kCancelled;
          {
            engine::BackendStats d;
            d.requests = 1;
            d.cancelled = 1;
            attempts.push_back({req.backend, d});
          }
          resp.served_backend = req.backend;
          run_engine = false;
          cache_code = 5;
          break;
        case ResultCache::Outcome::MissLeader:
          ticket = std::move(lookup.ticket);
          cache_code = 1;
          break;
        case ResultCache::Outcome::Bypass:
          bypass_upgrade = true;
          cache_code = 4;
          break;
      }
    }
    if (run_engine) {
      // Pin the snapshot in this worker's scratch: pooled networks
      // reference their grammar, so the bundle must stay alive while
      // they do.  A newer epoch of the same tenant retires the old
      // epoch's networks (and releases its pin).
      WorkerScratch& ws = scratch_[static_cast<std::size_t>(worker)];
      for (auto it = ws.pinned.begin(); it != ws.pinned.end();) {
        if (it->second->tenant_id() == snap->tenant_id() &&
            it->second->epoch() < snap->epoch()) {
          ws.networks.purge(it->first);
          ws.batchers.erase(it->first);
          it = ws.pinned.erase(it);
        } else {
          ++it;
        }
      }
      ws.pinned[&snap->grammar()] = snap;

      engine::Backend target = req.backend;
      // Open breaker: don't even try the sick backend, go straight to
      // the degradation target.
      if (opt_.enable_breaker && target != engine::Backend::Serial &&
          !breakers_[static_cast<std::size_t>(target)].allow()) {
        target = engine::Backend::Serial;
        rerouted = true;
      }
      once = run_once(target);
      attempts.push_back({target, delta_of(once)});
      resp.served_backend = target;
      // Breaker bookkeeping for the backend that actually ran (only
      // non-Serial backends are degradable sources).
      if (opt_.enable_breaker && target != engine::Backend::Serial) {
        auto& breaker = breakers_[static_cast<std::size_t>(target)];
        if (once.kind == Outcome::kFault || once.kind == Outcome::kStall) {
          if (breaker.record_failure()) ++local_breaker_trips;
        } else if (once.kind == Outcome::kOk) {
          breaker.record_success();
        }
        // kCancelled is the caller's deadline, kBad is the caller's
        // input: neither says anything about backend health.
      }
      // Retry-with-fallback: a faulted or stalled parse on a parallel
      // backend is re-run once on Serial.  Same constraint network,
      // same fixpoint — the response is bit-identical, only degraded.
      if ((once.kind == Outcome::kFault || once.kind == Outcome::kStall) &&
          target != engine::Backend::Serial && opt_.retry_serial &&
          !(has_deadline && clock::now() >= deadline_at)) {
        if (once.kind == Outcome::kStall) ++local_stalls;
        ++local_fallback_retries;
        once = run_once(engine::Backend::Serial);
        attempts.push_back({engine::Backend::Serial, delta_of(once)});
        resp.served_backend = engine::Backend::Serial;
        resp.degraded = true;
        if (once.kind == Outcome::kOk) ++local_fallback_ok;
      } else if (once.kind == Outcome::kStall) {
        ++local_stalls;
      }
      if (rerouted) resp.degraded = true;

      // Publish into the cache: only Ok results are memoizable (a
      // timeout or fault is a property of this execution, not of the
      // (grammar, sentence) function).  A leader that failed abandons
      // its ticket, waking coalesced waiters to retry.
      if (once.kind == Outcome::kOk && (ticket || bypass_upgrade)) {
        ResultCache::Payload payload;
        payload.accepted = once.run.accepted;
        payload.alive_role_values = once.run.alive_role_values;
        payload.domains_hash = once.run.domains_hash;
        payload.has_domains = req.capture_domains;
        if (req.capture_domains) payload.domains = once.run.domains;
        payload.parsed_on = resp.served_backend;
        if (ticket)
          ticket.fill(std::move(payload));
        else
          cache_->put(ckey, std::move(payload));
      } else if (ticket) {
        ticket.abandon();
      }
    }
  }
  if (slot) watchdog_->end(static_cast<std::size_t>(worker));
  tenant->inflight.fetch_sub(1, std::memory_order_acq_rel);

  if (!served_from_cache) {
    switch (once.kind) {
      case Outcome::kOk:
        resp.status = RequestStatus::Ok;
        resp.accepted = once.run.accepted;
        resp.alive_role_values = once.run.alive_role_values;
        resp.domains_hash = once.run.domains_hash;
        resp.domains = std::move(once.run.domains);
        break;
      case Outcome::kCancelled:
        resp.status = RequestStatus::Timeout;
        break;
      case Outcome::kStall:
        resp.status = RequestStatus::Faulted;
        resp.error = once.error.empty() ? "watchdog: stuck worker cancelled"
                                        : once.error;
        break;
      case Outcome::kFault:
        resp.status = RequestStatus::Faulted;
        resp.error = once.error;
        break;
      case Outcome::kBad:
        resp.status = RequestStatus::BadRequest;
        resp.error = once.error;
        break;
    }
  }
  // Publish under the idempotency key: only Ok results are memoized (a
  // retry of a failed execution should re-execute), whether the answer
  // came from the engine or the content cache.  An abandoned ticket
  // wakes coalesced retries to elect a new leader.
  if (iticket || idem_bypass) {
    if (resp.status == RequestStatus::Ok) {
      ResultCache::Payload p;
      p.accepted = resp.accepted;
      p.alive_role_values = resp.alive_role_values;
      p.domains_hash = resp.domains_hash;
      p.has_domains = req.capture_domains;
      if (req.capture_domains) p.domains = resp.domains;
      p.parsed_on = resp.served_backend;
      if (iticket)
        iticket.fill(std::move(p));
      else
        idem_cache_->put(ikey, std::move(p));
    } else if (iticket) {
      iticket.abandon();
    }
  }
  resp.parse_seconds =
      std::chrono::duration<double>(clock::now() - dequeued).count();
  if (request_span.active()) {
    request_span.arg("queue_us",
                     static_cast<std::int64_t>(resp.queue_seconds * 1e6));
    request_span.arg("n", static_cast<std::int64_t>(req.sentence.size()));
    request_span.arg("status", static_cast<std::int64_t>(resp.status));
    request_span.arg("accepted",
                     static_cast<std::int64_t>(resp.accepted ? 1 : 0));
    request_span.arg("degraded",
                     static_cast<std::int64_t>(resp.degraded ? 1 : 0));
    request_span.arg("tenant",
                     static_cast<std::int64_t>(snap->tenant_id()));
    request_span.arg("epoch",
                     static_cast<std::int64_t>(resp.grammar_epoch));
    request_span.arg("cache", cache_code);
  }

  // Resilience counters (registry first — lock-free — then the struct
  // counters under the stats mutex inside record()).
  if (rerouted) breaker_rerouted_total_->inc();
  breaker_trips_total_->inc(local_breaker_trips);
  fallback_retries_total_->inc(local_fallback_retries);
  fallback_ok_total_->inc(local_fallback_ok);
  watchdog_stalls_total_->inc(local_stalls);
  {
    std::lock_guard lock(stats_mutex_);
    if (rerouted) ++breaker_rerouted_;
    fallback_retries_ += local_fallback_retries;
    fallback_ok_ += local_fallback_ok;
    watchdog_stalls_ += local_stalls;
  }

  record(resp, attempts);
  if (cb)
    cb(std::move(resp));
  else
    promise.set_value(std::move(resp));
}

void ParseService::record_at_submit(const ParseResponse& resp) {
  serve_status_[static_cast<std::size_t>(resp.status)]->inc();
  std::lock_guard lock(stats_mutex_);
  switch (resp.status) {
    case RequestStatus::Timeout:
      ++timeouts_;
      timeouts_total_->inc();
      break;
    case RequestStatus::ShuttingDown:
      ++rejected_at_submit_;
      rejected_at_submit_total_->inc();
      break;
    case RequestStatus::BadRequest:
      ++bad_requests_;
      break;
    case RequestStatus::Overloaded:
      ++overloaded_;
      break;
    default:
      break;
  }
}

void ParseService::record(const ParseResponse& resp,
                          const std::vector<Attempt>& attempts) {
  const double total_seconds = resp.queue_seconds + resp.parse_seconds;
  // Registry updates first: lock-free, outside the stats mutex.  The
  // request's wall latency is attributed to the backend that served it.
  for (const Attempt& a : attempts)
    publisher_.publish(a.backend, a.delta,
                       a.backend == resp.served_backend ? total_seconds : 0.0);
  serve_status_[static_cast<std::size_t>(resp.status)]->inc();
  if (resp.status == RequestStatus::Timeout) timeouts_total_->inc();
  queue_wait_seconds_->observe(resp.queue_seconds);
  queue_depth_gauge_->set(static_cast<double>(pool_->queue_depth()));
  latency_buckets_.observe(total_seconds);
  std::lock_guard lock(stats_mutex_);
  ++completed_;
  if (resp.accepted) ++accepted_;
  switch (resp.status) {
    case RequestStatus::Timeout:
      ++timeouts_;
      break;
    case RequestStatus::BadRequest:
      ++bad_requests_;
      break;
    case RequestStatus::Faulted:
      ++faulted_;
      break;
    default:
      break;
  }
  latency_.add(total_seconds);
  for (const Attempt& a : attempts)
    backend_stats_[static_cast<std::size_t>(a.backend)] += a.delta;
}

std::string ParseService::metrics_text() const {
  queue_depth_gauge_->set(static_cast<double>(pool_->queue_depth()));
  return opt_.metrics->scrape();
}

ServiceStats ParseService::stats() const {
  ServiceStats s;
  s.elapsed_seconds =
      std::chrono::duration<double>(clock::now() - start_).count();
  s.queue_depth = pool_->queue_depth();
  s.threads = pool_->num_threads();
  s.workers = pool_->worker_stats();
  if (cache_) s.cache = cache_->stats();
  if (idem_cache_) s.idempotency = idem_cache_->stats();
  std::uint64_t trips = 0;
  for (const auto& b : breakers_) trips += b.trips();
  const obs::Histogram::Snapshot latency = latency_buckets_.snapshot();
  std::lock_guard lock(stats_mutex_);
  s.submitted = submitted_;
  s.completed = completed_;
  s.accepted = accepted_;
  s.timeouts = timeouts_;
  s.rejected_at_submit = rejected_at_submit_;
  s.bad_requests = bad_requests_;
  s.overloaded = overloaded_;
  s.faulted = faulted_;
  s.fallback_retries = fallback_retries_;
  s.fallback_ok = fallback_ok_;
  s.breaker_trips = trips;
  s.breaker_rerouted = breaker_rerouted_;
  s.watchdog_stalls = watchdog_stalls_;
  s.batches = batches_;
  s.batched_requests = batched_requests_;
  s.throughput_sps =
      s.elapsed_seconds > 0
          ? static_cast<double>(completed_) / s.elapsed_seconds
          : 0.0;
  s.latency_mean_ms = latency_.mean() * 1e3;
  s.latency_max_ms = latency_.max() * 1e3;
  // Within 5% of the exact order statistic (ratio-1.1 buckets).
  const auto percentile_ms = [&](double q) {
    return std::clamp(obs::bucket_quantile(latency, q), latency_.min(),
                      latency_.max()) *
           1e3;
  };
  s.latency_p50_ms = percentile_ms(0.50);
  s.latency_p95_ms = percentile_ms(0.95);
  s.latency_p99_ms = percentile_ms(0.99);
  for (std::size_t i = 0; i < engine::kNumBackends; ++i)
    s.backends[i] = backend_stats_[i];
  return s;
}

}  // namespace parsec::serve
