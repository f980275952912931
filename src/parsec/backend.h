// Uniform backend selection over the PARSEC engines.
//
// The engines (sequential CDG, CRCW P-RAM, simulated MasPar, 2-D mesh)
// expose different option/result types; callers that
// pick an engine per request — the CLI, the parse service, the
// throughput bench — want one enum, one compiled-parser bundle, and one
// outcome shape.  All engines reach the same fixpoint under unbounded
// filtering (support removal is confluent; the equivalence tests verify
// bit-equality), so `BackendRun::domains_hash` is backend-independent
// for a given sentence and is the service's bit-identity check.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cdg/batch.h"
#include "cdg/network.h"
#include "cdg/parser.h"
#include "obs/metrics.h"
#include "parsec/maspar_parser.h"
#include "parsec/mesh_parser.h"
#include "parsec/pram_parser.h"

namespace parsec::engine {

enum class Backend { Serial, Pram, Maspar, Mesh };

inline constexpr Backend kAllBackends[] = {Backend::Serial, Backend::Pram,
                                           Backend::Maspar, Backend::Mesh};
inline constexpr std::size_t kNumBackends = 4;

const char* to_string(Backend b);
std::optional<Backend> backend_from_name(std::string_view name);

/// Per-backend work counters rolled up across requests (serve's
/// ServiceStats aggregates one of these per backend).
struct BackendStats {
  std::uint64_t requests = 0;
  std::uint64_t accepted = 0;
  std::uint64_t cancelled = 0;
  /// Requests that ended in a thrown fault (injected or genuine); the
  /// serve layer counts the request here when the worker boundary
  /// degrades the exception to RequestStatus::Faulted.
  std::uint64_t faulted = 0;
  /// Host network work (serial / pram / mesh run on a cdg::Network).
  cdg::NetworkCounters network;
  std::uint64_t consistency_iterations = 0;
  /// P-RAM step model (pram backend only).
  pram::StepStats pram;
  /// MasPar machine activity + calibrated time (maspar backend only).
  maspar::MachineStats maspar;
  double maspar_simulated_seconds = 0.0;
  /// Topology step model (mesh backend only).
  std::uint64_t topo_time_steps = 0;
  std::uint64_t topo_elementwise_steps = 0;
  std::uint64_t topo_reduction_steps = 0;

  BackendStats& operator+=(const BackendStats& o);
};

/// Pool of constraint networks keyed by (grammar, sentence length):
/// `acquire` reuses (via Network::reinit) the network — and with it the
/// whole backing arena — built for the last same-shape sentence, so
/// steady-state parsing of a workload with repeating lengths allocates
/// nothing.  Keying by grammar identity (not just length) lets one
/// worker serve many tenants without thrashing the pool when requests
/// alternate between grammars; `purge(&grammar)` releases the networks
/// of a retired grammar snapshot after a hot reload.
class NetworkScratch {
 public:
  cdg::Network& acquire(const cdg::Grammar& g, const cdg::Sentence& s,
                        cdg::NetworkOptions opt = {});

  /// Drops every pooled network built against `g` (call after the
  /// grammar snapshot is retired; pooled networks hold references into
  /// their grammar, so they must not outlive it).
  void purge(const cdg::Grammar* g);

  std::size_t pooled_shapes() const { return by_shape_.size(); }
  std::uint64_t reuses() const { return reuses_; }

  /// Total bytes of the pooled arena allocations (bench_memory reports
  /// these against the paper's PE-memory table).
  std::size_t arena_bytes() const;
  /// Backing-buffer (re)allocations across all pooled arenas.
  std::uint64_t arena_allocations() const;
  /// Same-shape arena reuses across all pooled arenas.
  std::uint64_t arena_reinits() const;

 private:
  /// One pooled network per (grammar instance, sentence length).
  struct ShapeKey {
    const cdg::Grammar* grammar = nullptr;
    int length = 0;
    bool operator==(const ShapeKey&) const = default;
  };
  struct ShapeKeyHash {
    std::size_t operator()(const ShapeKey& k) const {
      return std::hash<const void*>()(k.grammar) ^
             (std::hash<int>()(k.length) * 0x9e3779b97f4a7c15ull);
    }
  };
  std::unordered_map<ShapeKey, cdg::Network, ShapeKeyHash> by_shape_;
  std::uint64_t reuses_ = 0;
};

/// One compiled parser per backend for a grammar.  Construction compiles
/// every constraint set once; the set is immutable afterwards and safe
/// to share across threads (each parse mutates only its own network).
struct EngineSetOptions {
  EngineSetOptions() {
    // The MasPar engine runs filtering to the fixpoint so its result is
    // bit-identical to the serial parser's.
    maspar.filter_iterations = -1;
  }
  cdg::ParseOptions serial;
  PramOptions pram;
  MasparOptions maspar;
  /// Mesh backend: the 2-D mesh topology model (Fig. 8 column), run to
  /// the fixpoint so its result is bit-identical to the other engines.
  int mesh_filter_iterations = -1;
};

class EngineSet {
 public:
  explicit EngineSet(const cdg::Grammar& g, EngineSetOptions opt = {});

  const cdg::Grammar& grammar() const { return *grammar_; }
  const cdg::SequentialParser& serial() const { return serial_; }
  const PramParser& pram() const { return pram_; }
  const MasparParser& maspar() const { return maspar_; }
  const TopologyParser& mesh() const { return mesh_; }
  const EngineSetOptions& options() const { return opt_; }

 private:
  const cdg::Grammar* grammar_;
  EngineSetOptions opt_;
  cdg::SequentialParser serial_;
  PramParser pram_;
  MasparParser maspar_;
  TopologyParser mesh_;
};

/// Outcome of one sentence on one backend.
struct BackendRun {
  bool cancelled = false;  // CancelFn fired at an engine checkpoint
                           // (all four backends poll mid-parse)
  bool accepted = false;
  std::size_t alive_role_values = 0;
  /// FNV-1a over the final domain bitsets; equal across backends at the
  /// fixpoint, equal across runs (bit-determinism).
  std::uint64_t domains_hash = 0;
  /// Final domains, captured only on request (they are O(n^2) bits).
  std::vector<util::DynBitset> domains;
  BackendStats stats;  // this run's contribution
};

/// FNV-1a over domain sizes and words.
std::uint64_t hash_domains(const std::vector<util::DynBitset>& domains);

/// Same hash computed directly over a network's arena-backed domain
/// spans — no per-request domain copies on the serve hot path.
std::uint64_t hash_domains(const cdg::Network& net);

/// FNV-1a over a tagged sentence (words + chosen categories).  The
/// serve layer's parse-result cache keys on this: two requests with the
/// same hash under the same grammar epoch reach the same fixpoint, so
/// the cached response is bit-identical to a fresh parse.
std::uint64_t hash_sentence(const cdg::Sentence& s);

/// Parses `s` on backend `b`.  `scratch` (if non-null) supplies the
/// reusable network pool (networks + arenas);
/// `cancel` (if non-empty) aborts — every backend polls it at its
/// engine checkpoints (before each constraint and each filtering
/// sweep), so a fired deadline stops work within one fixpoint sweep.
/// `capture_domains` copies the final domains into the result.
///
/// Faults (resil::InjectedFault from an armed fault plan, or genuine
/// grammar/machine exceptions) propagate to the caller; the serve
/// layer degrades them to RequestStatus::Faulted at its worker
/// boundary.
///
/// Thread-safety: `engines` is read-only here and may be shared across
/// concurrent callers; `scratch` is mutated and must NOT be shared —
/// one NetworkScratch per worker thread (the serve layer keeps one per
/// pool thread).  Under an active obs::TraceSession the whole call is
/// wrapped in a `backend.<name>` span carrying the run's cost counters
/// (effective unary/binary evals; router scans and ACU broadcasts on
/// the MasPar backend) as span args.
BackendRun run_backend(const EngineSet& engines, Backend b,
                       const cdg::Sentence& s,
                       NetworkScratch* scratch = nullptr,
                       const cdg::CancelFn& cancel = {},
                       bool capture_domains = false);

/// Parses up to cdg::BatchParser::kLanes same-length sentences in one
/// SoA lane batch (see cdg/batch.h) and splits the outcome back into
/// one BackendRun per sentence, in input order.  Each run's
/// `domains_hash` is bit-identical to a Serial `run_backend` of that
/// sentence alone (confluence); its cost counters reflect the lockstep
/// batch schedule, so they are >= the sequential counters.  Wrapped in
/// a `backend.batch` span carrying lane count and per-batch tile/lane
/// totals.  `parser` is mutated (its interleaved buffers are the batch
/// arena) and must not be shared across threads.
std::vector<BackendRun> run_backend_batch(
    cdg::BatchParser& parser, std::span<const cdg::Sentence> sentences,
    bool capture_domains = false);

/// Publishes per-run BackendStats deltas into an obs::Registry as the
/// Prometheus metrics documented in docs/OBSERVABILITY.md
/// (`parsec_requests_total{backend,status}`, the cost-counter
/// families, and the `parsec_parse_duration_seconds` histogram).
///
/// Handles are resolved once, in the constructor, under the registry
/// mutex; `publish()` is lock-free and safe to call concurrently from
/// any number of threads.  The registry must outlive the publisher
/// (the default, `obs::Registry::global()`, lives for the process).
/// ParseService owns one; the benches construct their own when
/// `--metrics-out` is given.
class StatsPublisher {
 public:
  explicit StatsPublisher(obs::Registry* registry = &obs::Registry::global());

  /// Adds one run's contribution under its backend's labels.
  /// `delta` must be a single-run delta (as in BackendRun::stats), not
  /// a running total.  `seconds` (when >= 0) is observed in the
  /// per-backend latency histogram.
  void publish(Backend b, const BackendStats& delta, double seconds = -1.0);

 private:
  struct PerBackend {
    // Disjoint outcomes of parsec_requests_total{status=...}: every
    // completed request increments exactly one.
    obs::Counter* accepted;
    obs::Counter* rejected;
    obs::Counter* cancelled;
    obs::Counter* faulted;
    obs::Counter* effective_unary_evals;
    obs::Counter* effective_binary_evals;
    obs::Counter* masked_binary_pairs;
    obs::Counter* mask_build_evals;
    obs::Counter* eliminations;
    obs::Counter* arc_zeroings;
    obs::Counter* support_checks;
    obs::Counter* consistency_iterations;
    // SIMD kernel activity (tier-independent work counters; see
    // cdg/kernels.h).
    obs::Counter* simd_tile_sweeps;
    obs::Counter* simd_lane_words;
    obs::Histogram* latency;
  };
  PerBackend per_backend_[kNumBackends];
  // Backend-specific machine counters.
  obs::Counter* maspar_plural_ops_;
  obs::Counter* maspar_scan_ops_;
  obs::Counter* maspar_route_ops_;
  obs::Gauge* maspar_simulated_seconds_;
  obs::Counter* pram_time_steps_;
  obs::Counter* topo_time_steps_;
  obs::Counter* topo_reduction_steps_;
};

}  // namespace parsec::engine
