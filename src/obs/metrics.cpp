#include "obs/metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace parsec::obs {

std::size_t this_thread_stripe() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t stripe =
      next.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return stripe;
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), shards_(kStripes) {
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
  for (Shard& s : shards_)
    s.buckets = std::vector<std::atomic<std::uint64_t>>(bounds_.size() + 1);
}

void Histogram::observe(double v) {
  Shard& s = shards_[this_thread_stripe()];
  const std::size_t i = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  s.buckets[i].fetch_add(1, std::memory_order_relaxed);
  double cur = s.sum.load(std::memory_order_relaxed);
  while (!s.sum.compare_exchange_weak(cur, cur + v,
                                      std::memory_order_relaxed)) {
  }
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot out;
  out.bounds = bounds_;
  out.buckets.assign(bounds_.size() + 1, 0);
  for (const Shard& s : shards_) {
    for (std::size_t i = 0; i < s.buckets.size(); ++i)
      out.buckets[i] += s.buckets[i].load(std::memory_order_relaxed);
    out.sum += s.sum.load(std::memory_order_relaxed);
  }
  for (std::uint64_t b : out.buckets) out.count += b;
  return out;
}

std::vector<double> default_latency_buckets_seconds() {
  return {1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2,
          5e-2, 1e-1, 2e-1, 5e-1, 1.0,  2.0,  5.0};
}

std::vector<double> log_buckets(double lo, double hi, double ratio) {
  assert(lo > 0 && ratio > 1);
  std::vector<double> bounds{lo};
  while (bounds.back() < hi) bounds.push_back(bounds.back() * ratio);
  return bounds;
}

double bucket_quantile(const Histogram::Snapshot& s, double q) {
  if (s.count == 0 || s.bounds.empty()) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      std::clamp(q, 0.0, 1.0) * static_cast<double>(s.count - 1));
  std::size_t i = 0;
  for (std::uint64_t seen = s.buckets[0]; seen <= rank; seen += s.buckets[i])
    ++i;
  if (i == 0) return s.bounds.front();
  if (i == s.bounds.size()) return s.bounds.back();
  return std::sqrt(s.bounds[i - 1] * s.bounds[i]);
}

Registry& Registry::global() {
  static Registry* reg = new Registry();  // never destroyed; see header
  return *reg;
}

Registry::Instrument& Registry::instrument(const std::string& name,
                                           const std::string& help, Type type,
                                           Labels labels) {
  auto [it, inserted] = families_.try_emplace(name);
  Family& fam = it->second;
  if (inserted) {
    fam.help = help;
    fam.type = type;
  } else if (fam.type != type) {
    throw std::logic_error("metric '" + name +
                           "' re-registered with a different type");
  }
  for (Instrument& ins : fam.instruments)
    if (ins.labels == labels) return ins;
  fam.instruments.emplace_back();
  Instrument& ins = fam.instruments.back();
  ins.labels = std::move(labels);
  return ins;
}

Counter& Registry::counter(const std::string& name, const std::string& help,
                           Labels labels) {
  std::lock_guard lock(mu_);
  Instrument& ins = instrument(name, help, Type::Counter, std::move(labels));
  if (!ins.counter) ins.counter = std::make_unique<Counter>();
  return *ins.counter;
}

Gauge& Registry::gauge(const std::string& name, const std::string& help,
                       Labels labels) {
  std::lock_guard lock(mu_);
  Instrument& ins = instrument(name, help, Type::Gauge, std::move(labels));
  if (!ins.gauge) ins.gauge = std::make_unique<Gauge>();
  return *ins.gauge;
}

Histogram& Registry::histogram(const std::string& name,
                               const std::string& help,
                               std::vector<double> bounds, Labels labels) {
  std::lock_guard lock(mu_);
  Instrument& ins = instrument(name, help, Type::Histogram, std::move(labels));
  if (!ins.histogram)
    ins.histogram = std::make_unique<Histogram>(std::move(bounds));
  return *ins.histogram;
}

void Registry::gauge_fn(const std::string& name, const std::string& help,
                        std::function<double()> fn, Labels labels) {
  std::lock_guard lock(mu_);
  Instrument& ins = instrument(name, help, Type::GaugeFn, std::move(labels));
  ins.fn = std::move(fn);
}

namespace {

void write_label_value(std::ostream& os, const std::string& v) {
  for (char c : v) {
    if (c == '\\' || c == '"')
      os << '\\' << c;
    else if (c == '\n')
      os << "\\n";
    else
      os << c;
  }
}

/// Renders {a="x",b="y"} (with `extra` appended) or nothing when empty.
void write_labels(std::ostream& os, const Labels& labels,
                  const std::string& extra_key = {},
                  const std::string& extra_val = {}) {
  if (labels.empty() && extra_key.empty()) return;
  os << '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) os << ',';
    first = false;
    os << k << "=\"";
    write_label_value(os, v);
    os << '"';
  }
  if (!extra_key.empty()) {
    if (!first) os << ',';
    os << extra_key << "=\"" << extra_val << '"';
  }
  os << '}';
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace

void Registry::write_prometheus(std::ostream& os) const {
  // Snapshot every instrument under the mutex, then render — and
  // invoke gauge_fn callbacks — after releasing it, so a callback may
  // touch this registry (register a metric, read another value)
  // without deadlocking on the non-recursive mu_.
  struct CellSnap {
    Labels labels;
    std::uint64_t count = 0;              // Counter
    double value = 0.0;                   // Gauge
    std::function<double()> fn;           // GaugeFn (invoked post-unlock)
    Histogram::Snapshot hist;             // Histogram
  };
  struct FamSnap {
    std::string name;
    std::string help;
    Type type;
    std::vector<CellSnap> cells;
  };
  std::vector<FamSnap> snap;
  {
    std::lock_guard lock(mu_);
    snap.reserve(families_.size());
    for (const auto& [name, fam] : families_) {
      FamSnap& f = snap.emplace_back();
      f.name = name;
      f.help = fam.help;
      f.type = fam.type;
      f.cells.reserve(fam.instruments.size());
      for (const Instrument& ins : fam.instruments) {
        CellSnap& c = f.cells.emplace_back();
        c.labels = ins.labels;
        switch (fam.type) {
          case Type::Counter:
            c.count = ins.counter->value();
            break;
          case Type::Gauge:
            c.value = ins.gauge->value();
            break;
          case Type::GaugeFn:
            c.fn = ins.fn;
            break;
          case Type::Histogram:
            c.hist = ins.histogram->snapshot();
            break;
        }
      }
    }
  }
  for (const FamSnap& fam : snap) {
    os << "# HELP " << fam.name << ' ' << fam.help << '\n';
    os << "# TYPE " << fam.name << ' ';
    switch (fam.type) {
      case Type::Counter:
        os << "counter";
        break;
      case Type::Histogram:
        os << "histogram";
        break;
      case Type::Gauge:
      case Type::GaugeFn:
        os << "gauge";
        break;
    }
    os << '\n';
    for (const CellSnap& c : fam.cells) {
      switch (fam.type) {
        case Type::Counter:
          os << fam.name;
          write_labels(os, c.labels);
          os << ' ' << c.count << '\n';
          break;
        case Type::Gauge:
          os << fam.name;
          write_labels(os, c.labels);
          os << ' ' << fmt_double(c.value) << '\n';
          break;
        case Type::GaugeFn:
          os << fam.name;
          write_labels(os, c.labels);
          os << ' ' << fmt_double(c.fn ? c.fn() : 0.0) << '\n';
          break;
        case Type::Histogram: {
          std::uint64_t cum = 0;
          for (std::size_t i = 0; i < c.hist.bounds.size(); ++i) {
            cum += c.hist.buckets[i];
            os << fam.name << "_bucket";
            write_labels(os, c.labels, "le", fmt_double(c.hist.bounds[i]));
            os << ' ' << cum << '\n';
          }
          os << fam.name << "_bucket";
          write_labels(os, c.labels, "le", "+Inf");
          os << ' ' << c.hist.count << '\n';
          os << fam.name << "_sum";
          write_labels(os, c.labels);
          os << ' ' << fmt_double(c.hist.sum) << '\n';
          os << fam.name << "_count";
          write_labels(os, c.labels);
          os << ' ' << c.hist.count << '\n';
          break;
        }
      }
    }
  }
}

std::string Registry::scrape() const {
  std::ostringstream os;
  write_prometheus(os);
  return os.str();
}

}  // namespace parsec::obs
