// Support-counting filtering (AC-4 style).
//
// The paper's filtering re-sweeps every role value per iteration
// (O(n^4) per sweep, §1.4) and bounds the iteration count in practice.
// The classic alternative — Mohr & Henderson's AC-4, contemporary with
// Maruyama's work — maintains, for every (role value, incident arc),
// the count of supporting 1-bits; an elimination decrements its
// partners' counters and a counter hitting zero queues the next
// elimination.  Total work is O(n^4) *overall* instead of per sweep,
// at the cost of the counter memory.  The fixpoint is identical
// (support removal is confluent); tests verify bit-equality and
// bench_ablation_ac4 measures the trade.  No engine filters this way:
// it is kept as that ablation.
//
// The counters, queued flags and FIFO queue live in an Ac4Scratch, not
// in the network's arena; pass one in to reuse its capacity across
// calls.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cdg/network.h"

namespace parsec::cdg {

struct Ac4Stats {
  std::size_t eliminations = 0;
  std::size_t counter_decrements = 0;
  std::size_t initial_count_work = 0;  // row words scanned to build counters
};

/// AC-4 working memory.  After filter_ac4 returns, `counts` holds, for
/// every value on the pair axis and every role, the value's supporting
/// 1-bits in that role's block of the pair matrix.
struct Ac4Scratch {
  std::vector<std::int32_t> counts;   // [v * R + role]
  std::vector<std::int32_t> role_of;  // [v] role owning pair-axis value v
  std::vector<std::uint8_t> queued;   // [v] enqueued once
  std::vector<std::int32_t> queue;    // pair-axis values, FIFO

  /// True when every alive value's counters equal its live support on
  /// each incident arc of `net` (the state filter_ac4 leaves).
  bool counts_match(const Network& net) const;
};

/// Runs support-counting filtering to the fixpoint on the network's
/// pair matrix (building it first if needed).  Equivalent to
/// net.filter(-1).
Ac4Stats filter_ac4(Network& net, Ac4Scratch& scratch);
Ac4Stats filter_ac4(Network& net);

}  // namespace parsec::cdg
