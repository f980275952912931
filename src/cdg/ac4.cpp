#include "cdg/ac4.h"

#include <algorithm>

#include "obs/trace.h"

namespace parsec::cdg {

namespace {

/// Supporting 1-bits of compact value `cid` of `role` on its arc to
/// `other`: a row popcount on the row side, a column count otherwise.
std::int32_t live_support(const Network& net, int role, std::size_t cid,
                          int other) {
  if (role < other)
    return static_cast<std::int32_t>(
        net.arc_matrix(role, other).row_count(cid));
  const util::ConstBitMatrixView m = net.arc_matrix(other, role);
  std::int32_t col = 0;
  for (std::size_t r = 0; r < m.rows(); ++r)
    if (m.test(r, cid)) ++col;
  return col;
}

}  // namespace

bool Ac4Scratch::counts_match(const Network& net) const {
  const int R = net.num_roles();
  if (axis_base.size() != static_cast<std::size_t>(R) + 1) return false;
  for (int role = 0; role < R; ++role) {
    const auto axis = net.compact_axis(role);
    for (std::size_t c = 0; c < axis.size(); ++c) {
      if (!net.alive(role, axis[c])) continue;
      for (int other = 0; other < R; ++other) {
        if (other == role) continue;
        if (counts[(axis_base[role] + c) * R + other] !=
            live_support(net, role, c, other))
          return false;
      }
    }
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
  const int R = net.num_roles();
  const std::size_t Rz = static_cast<std::size_t>(R);

  s.axis_base.assign(Rz + 1, 0);
  for (int r = 0; r < R; ++r)
    s.axis_base[r + 1] = s.axis_base[r] + net.compact_axis(r).size();
  const std::size_t values = s.axis_base[Rz];
  s.counts.assign(values * Rz, 0);
  s.queued.assign(values, 0);
  s.queue.resize(2 * values);
  auto count_at = [&](int role, std::size_t cid, int other) -> std::int32_t& {
    return s.counts[(s.axis_base[role] + cid) * Rz + other];
  };

  // Initial counts, word-granular: one popcount per row for the row
  // side, the row's set bits scattered onto the column side.  Arc bits
  // exist only at alive×alive positions, so dead values count zero.
  for (std::size_t t = 0; t < net.num_arcs(); ++t) {
    const auto [ra, rb] = net.arena().arc_pair(t);
    const util::ConstBitMatrixView m = net.arc_matrix(ra, rb);
    for (std::size_t i = 0; i < m.rows(); ++i) {
      const util::ConstBitSpan row = m.row_span(i);
      stats.initial_count_work += row.word_count();
      count_at(ra, i, rb) = static_cast<std::int32_t>(row.count());
      row.for_each([&](std::size_t j) { ++count_at(rb, j, ra); });
    }
  }

  // FIFO elimination queue.  Each value is enqueued at most once (the
  // flag is never cleared), so its capacity needs no wrap-around.
  std::size_t head = 0, tail = 0;
  auto enqueue = [&](int role, std::size_t cid) {
    auto& flag = s.queued[s.axis_base[role] + cid];
    if (flag) return;
    flag = 1;
    s.queue[2 * tail] = role;
    s.queue[2 * tail + 1] = static_cast<std::int32_t>(cid);
    ++tail;
  };

  // Seed the queue with unsupported alive values.
  for (int role = 0; role < R; ++role) {
    const auto axis = net.compact_axis(role);
    for (std::size_t c = 0; c < axis.size(); ++c) {
      if (!net.alive(role, axis[c])) continue;
      for (int other = 0; other < R; ++other)
        if (other != role && count_at(role, c, other) == 0) {
          enqueue(role, c);
          break;
        }
    }
  }

  // Propagate.
  while (head != tail) {
    const int role = s.queue[2 * head];
    const std::size_t cid = static_cast<std::size_t>(s.queue[2 * head + 1]);
    ++head;
    const int rv = net.compact_axis(role)[cid];
    if (!net.alive(role, rv)) continue;
    // Decrement partners *before* the elimination zeroes the bits: the
    // set bits of cid's row (or column) are exactly its supported
    // alive partners.
    auto release = [&](int other, std::size_t j) {
      ++stats.counter_decrements;
      if (--count_at(other, j, role) == 0) enqueue(other, j);
    };
    for (int other = 0; other < R; ++other) {
      if (other == role) continue;
      if (role < other) {
        net.arc_matrix(role, other).row_span(cid).for_each(
            [&](std::size_t j) { release(other, j); });
      } else {
        const util::ConstBitMatrixView m = net.arc_matrix(other, role);
        for (std::size_t j = 0; j < m.rows(); ++j)
          if (m.test(j, cid)) release(other, j);
      }
    }
    net.eliminate(role, rv);
    ++stats.eliminations;
  }
  span.arg("eliminations", stats.eliminations);
  span.arg("counter_decrements", stats.counter_decrements);
  span.arg("initial_count_work", stats.initial_count_work);
  return stats;
}

}  // namespace parsec::cdg
