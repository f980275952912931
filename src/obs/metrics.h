// Process-wide metrics registry with Prometheus text exposition.
//
// Counters, gauges and fixed-bucket histograms for the quantities the
// paper's complexity argument is made of — effective constraint evals,
// ACU broadcasts, router scans, mask hit rates — plus ordinary serving
// metrics (request counts, latency).  ParseService updates the
// registry per request; `Registry::scrape()` renders the Prometheus
// text format, and the benches write it via `--metrics-out`.
//
// Hot-path design: metric handles (`Counter&`, `Histogram&`) are
// resolved ONCE, at registration time, under the registry mutex;
// updating a handle is lock-free.  Each counter/histogram cell is
// striped across kStripes cache-line-padded atomic shards indexed by a
// per-thread id, so concurrent workers increment disjoint cache lines
// (the per-thread-shard scheme, folded to a fixed stripe count);
// `value()`/`scrape()` merge the shards with relaxed loads.
//
// Thread-safety / lifetime contracts:
//   * Registration (`counter()`, `gauge()`, `histogram()`) is
//     mutex-serialized and idempotent: the same (name, labels) pair
//     returns the same handle, so concurrent registration is safe.
//     A name re-registered as a different metric type throws
//     std::logic_error.
//   * Handles returned by the registry are valid for the registry's
//     lifetime (metrics are never deregistered) and safe to update
//     from any thread with no external synchronization.
//   * `scrape()` may run concurrently with updates; it sees each shard
//     atomically (relaxed), so a scrape racing an `inc` may miss that
//     increment but never reads a torn value.  Histogram bucket counts
//     and `_sum` are each individually atomic but not mutually: a
//     concurrent scrape can observe a bucket/sum skew of the in-flight
//     observations (standard for sharded Prometheus clients).
//   * `Registry::global()` is a process-wide singleton, constructed on
//     first use and never destroyed before exit.  Tests that need
//     isolation construct their own Registry and inject it.
//
// Metric names follow Prometheus conventions (snake_case, `_total`
// suffix on counters, base-unit names like `_seconds`); the full name
// and label reference lives in docs/OBSERVABILITY.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace parsec::obs {

/// Stripe count for sharded counters/histograms.  16 covers the
/// thread-pool sizes the serve layer runs (stripe collisions are
/// correctness-neutral; they only cost a shared cache line).
inline constexpr std::size_t kStripes = 16;

/// The calling thread's stripe index (assigned round-robin on first
/// use, stable for the thread's lifetime).
std::size_t this_thread_stripe();

/// Monotonically increasing counter.
class Counter {
 public:
  /// Lock-free; relaxed striped add.
  void inc(std::uint64_t v = 1) {
    cells_[this_thread_stripe()].v.fetch_add(v, std::memory_order_relaxed);
  }
  /// Merged value across stripes.
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Cell& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  Cell cells_[kStripes];
};

/// Last-write-wins floating-point gauge (also usable as a double
/// accumulator via add(), e.g. simulated seconds).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double d) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d,
                                     std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram.  Bucket i counts observations with
/// value <= bounds[i] (Prometheus `le` semantics); one implicit +Inf
/// bucket catches the rest.  Bounds are fixed at registration.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  /// Lock-free striped observe.
  void observe(double v);

  struct Snapshot {
    std::vector<double> bounds;          // upper bounds, ascending
    std::vector<std::uint64_t> buckets;  // per-bucket counts, +Inf last
    std::uint64_t count = 0;
    double sum = 0.0;
  };
  Snapshot snapshot() const;

  const std::vector<double>& bounds() const { return bounds_; }

 private:
  struct alignas(64) Shard {
    std::vector<std::atomic<std::uint64_t>> buckets;
    std::atomic<double> sum{0.0};
  };
  std::vector<double> bounds_;
  std::vector<Shard> shards_;  // kStripes entries, sized at construction
};

/// Default latency buckets (seconds): 100 µs .. 5 s, roughly 1-2-5.
std::vector<double> default_latency_buckets_seconds();

/// Bounds growing geometrically by `ratio` from `lo` until one reaches
/// `hi`.  For any value in [lo, hi], bucket_quantile over such buckets is
/// within sqrt(ratio) - 1 of it, relatively.
std::vector<double> log_buckets(double lo, double hi, double ratio);

/// Quantile `q` in [0, 1] of the observations in `s`: the geometric
/// midpoint of the bucket holding the order statistic of rank
/// q * (count - 1), or 0 when empty.  The first and the +Inf bucket
/// read as the outermost finite bound, so callers clamp the estimate to
/// the observed [min, max].
double bucket_quantile(const Histogram::Snapshot& s, double q);

/// Labels as (key, value) pairs in render order.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry (what ParseService uses by default).
  static Registry& global();

  /// Get-or-create.  Same (name, labels) returns the same handle; a
  /// type conflict throws std::logic_error.  `help` sticks from the
  /// first registration of `name`.
  Counter& counter(const std::string& name, const std::string& help,
                   Labels labels = {});
  Gauge& gauge(const std::string& name, const std::string& help,
               Labels labels = {});
  Histogram& histogram(const std::string& name, const std::string& help,
                       std::vector<double> bounds, Labels labels = {});

  /// Gauge computed at scrape time (queue depth, pool utilization).
  /// Re-registering the same (name, labels) replaces the callback.
  /// Callbacks run OUTSIDE the registry mutex (scrape copies them
  /// first), so a callback may safely register metrics or scrape this
  /// registry; it must tolerate being invoked concurrently from
  /// multiple scrapers and may outlive-copy: a racing re-registration
  /// can leave one scrape still running the old callback.
  void gauge_fn(const std::string& name, const std::string& help,
                std::function<double()> fn, Labels labels = {});

  /// Prometheus text exposition format (version 0.0.4).
  void write_prometheus(std::ostream& os) const;
  std::string scrape() const;

 private:
  enum class Type { Counter, Gauge, Histogram, GaugeFn };
  struct Instrument {
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::function<double()> fn;
  };
  struct Family {
    std::string help;
    Type type;
    std::vector<Instrument> instruments;  // registration order
  };

  Instrument& instrument(const std::string& name, const std::string& help,
                         Type type, Labels labels);

  mutable std::mutex mu_;  // registration + scrape
  std::map<std::string, Family> families_;
};

}  // namespace parsec::obs
