#include "cdg/ac4.h"

#include <algorithm>

#include "obs/trace.h"

namespace parsec::cdg {

namespace {

/// Supporting 1-bits of pair-axis value `v` in `other`'s block.
std::int32_t live_support(const Network& net, std::size_t v, int other) {
  const NetworkArena& a = net.arena();
  const util::ConstBitMatrixView m = net.pair_matrix();
  std::int32_t n = 0;
  for (std::size_t u = a.block_begin(other); u < a.block_end(other); ++u)
    n += m.test(v, u);
  return n;
}

}  // namespace

bool Ac4Scratch::counts_match(const Network& net) const {
  const int R = net.num_roles();
  const NetworkArena& a = net.arena();
  if (role_of.size() != a.pair_values()) return false;
  for (std::size_t v = 0; v < role_of.size(); ++v) {
    if (!net.alive(role_of[v], a.pair_axis()[v])) continue;
    for (int other = 0; other < R; ++other)
      if (other != role_of[v] &&
          counts[v * R + other] != live_support(net, v, other))
        return false;
  }
  return true;
}

Ac4Stats filter_ac4(Network& net) {
  Ac4Scratch scratch;
  return filter_ac4(net, scratch);
}

Ac4Stats filter_ac4(Network& net, Ac4Scratch& s) {
  obs::Span span("cdg.ac4_fixpoint");
  net.build_arcs();
  Ac4Stats stats;
  const NetworkArena& a = net.arena();
  const std::size_t R = static_cast<std::size_t>(net.num_roles());
  const std::size_t V = a.pair_values();
  s.role_of.resize(V);
  for (int r = 0; r < net.num_roles(); ++r)
    std::fill(s.role_of.begin() + a.block_begin(r),
              s.role_of.begin() + a.block_end(r), r);
  s.counts.assign(V * R, 0);
  s.queued.assign(V, 0);
  s.queue.resize(V);

  // Initial counts, one row scan per value: each set bit is a partner
  // in that bit's role.  Bits exist only at alive×alive positions, so
  // dead values count zero.
  const util::ConstBitMatrixView m = net.pair_matrix();
  for (std::size_t v = 0; v < V; ++v) {
    stats.initial_count_work += m.row_word_count();
    m.row_span(v).for_each(
        [&](std::size_t u) { ++s.counts[v * R + s.role_of[u]]; });
  }

  // FIFO elimination queue.  Each value is enqueued at most once (the
  // flag is never cleared), so its capacity needs no wrap-around.
  std::size_t head = 0, tail = 0;
  auto enqueue = [&](std::size_t v) {
    if (s.queued[v]) return;
    s.queued[v] = 1;
    s.queue[tail++] = static_cast<std::int32_t>(v);
  };

  // Seed the queue with unsupported alive values.
  for (std::size_t v = 0; v < V; ++v) {
    if (!net.alive(s.role_of[v], a.pair_axis()[v])) continue;
    for (std::size_t other = 0; other < R; ++other)
      if (other != static_cast<std::size_t>(s.role_of[v]) &&
          s.counts[v * R + other] == 0) {
        enqueue(v);
        break;
      }
  }

  // Propagate.  M is symmetric: the set bits of v's row are exactly its
  // supported alive partners, so release them *before* the elimination
  // zeroes the row.
  while (head != tail) {
    const std::size_t v = static_cast<std::size_t>(s.queue[head++]);
    const int role = s.role_of[v];
    const int rv = a.pair_axis()[v];
    if (!net.alive(role, rv)) continue;
    m.row_span(v).for_each([&](std::size_t u) {
      ++stats.counter_decrements;
      if (--s.counts[u * R + static_cast<std::size_t>(role)] == 0) enqueue(u);
    });
    net.eliminate(role, rv);
    ++stats.eliminations;
  }
  span.arg("eliminations", stats.eliminations);
  span.arg("counter_decrements", stats.counter_decrements);
  span.arg("initial_count_work", stats.initial_count_work);
  return stats;
}

}  // namespace parsec::cdg
