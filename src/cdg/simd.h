// Runtime-dispatched SIMD word kernels for the batched filtering sweeps.
//
// The masked binary sweep is Boolean matrix work: per arc row it
// evaluates eight AND/ANDN/OR terms over the partner-side truth-mask
// words and folds the results into kill/keep/undecided words.  A
// single sentence's pair-matrix rows are one to three words wide, so
// cdg/kernels.cpp runs that expression scalar, without a dispatch; the
// SoA batch (cdg/batch.h), whose rows interleave eight sentences, runs
// it through this table.  That inner loop is the host-side counterpart
// of the MasPar ACU broadcasting one instruction to every PE (paper
// §2.1): the same eight-term expression applied to every 64-bit word of
// the row.  This header widens it explicitly — AVX2 (4 words per op)
// and AVX-512 (8 words per op, native vpopcntdq) variants behind a
// CPUID-resolved dispatch table, with a portable scalar fallback that
// is the reference semantics.  All tiers compute bit-identical results
// and bit-identical counter totals (the per-word algebra is
// associative-free: each word's outputs depend only on that word's
// inputs), so the dispatch tier is a pure throughput knob — tested by
// forcing every tier over the same corpus.
//
// Lanes: every kernel takes a `lanes` period (1 or kMaxLanes).  With
// lanes == 1 the broadcast constants are single words and the data is
// one row.  With lanes == 8 the data is a structure-of-arrays batch row
// — word index t holds word t/8 of sentence lane t%8 (cdg/batch.h) —
// and each constant pointer carries 8 per-lane words.  One AVX-512
// vector op then advances all 8 sentences by 64 role values at once,
// and the per-lane stats accumulators fall out of the vector popcounts
// for free (each 64-bit accumulator lane IS a sentence lane).
//
// Overriding the tier: the PARSEC_SIMD environment variable ("off" /
// "scalar" / "avx2" / "avx512", case-insensitive, read once) caps the
// CPUID-detected tier, and force_tier()/ScopedTier override both for
// tests and the ISA-ablation bench.  Requests above the detected tier
// clamp down — forcing "avx512" on an AVX2 host runs AVX2.
#pragma once

#include <cstddef>
#include <cstdint>

namespace parsec::cdg::simd {

using Word = std::uint64_t;

/// Dispatch tiers, ordered: a tier implies every lower tier works.
enum class IsaTier : int { Scalar = 0, Avx2 = 1, Avx512 = 2 };

/// Stable lowercase name ("scalar", "avx2", "avx512") for metrics,
/// bench JSON and the PARSEC_SIMD parser.
const char* tier_name(IsaTier t);

/// Best tier this CPU supports (CPUID, computed once).  AVX-512 needs
/// avx512f + avx512vpopcntdq (the sweep counts pairs with vpopcntq).
IsaTier detected_tier();

/// Tier in effect: force_tier() override if set, else the detected
/// tier capped by the PARSEC_SIMD environment variable.
IsaTier active_tier();

/// Process-wide override (clamped to detected_tier()).  Not a
/// synchronization point: set it before parsing starts, as the
/// ISA-ablation bench and the forced-scalar tests do.
void force_tier(IsaTier t);
void clear_forced_tier();

/// RAII tier override for tests.
class ScopedTier {
 public:
  explicit ScopedTier(IsaTier t) { force_tier(t); }
  ~ScopedTier() { clear_forced_tier(); }
  ScopedTier(const ScopedTier&) = delete;
  ScopedTier& operator=(const ScopedTier&) = delete;
};

/// SoA batch width (and the maximum `lanes` period).  Eight 64-bit
/// words = one AVX-512 vector = one cache line: a batch row is a
/// sequence of aligned 8-word groups, one word per sentence lane.
inline constexpr std::size_t kMaxLanes = 8;

/// Broadcast constants of one a-side row for the masked sweep's two
/// evaluation directions.  Each pointer holds `lanes` words, every word
/// all-ones or all-zero; word index t of the row uses constant word
/// t % lanes.  Derivation from the row's hoisted-mask bits (ax, ay,
/// cx, cy) and the constraint's residual flags: see
/// BatchParser::sweep_constraint (and the scalar form in
/// kernels::sweep_binary_masked).
struct SweepConsts {
  const Word* nax;  // ~0 when the row fails ante_x (direction 1 vacuous)
  const Word* t1c;  // ~0 when cons_x holds with no consequent residual
  const Word* f1;   // ~0 when direction 1 can be falsified mask-only
  const Word* ncx;  // ~0 when the row fails cons_x
  const Word* nay;  // direction-2 mirrors of the four above
  const Word* t2c;
  const Word* f2;
  const Word* ncy;
};

/// Per-lane accumulators of one or more sweep_row calls.  The caller
/// zero-initializes once per attribution scope; kernels add into them.
struct SweepStats {
  Word masked[kMaxLanes] = {};  // pairs decided without an evaluation
  Word dead[kMaxLanes] = {};    // pairs the mask pass killed
  bool any_undecided = false;   // any nonzero word written to `undecided`
};

/// The dispatched primitives.  All pointers are to 64-bit word arrays;
/// `n` is a word count.  None of the kernels require alignment (the
/// arena provides 64-byte rows, letting aligned loads happen, but
/// ad-hoc callers with unaligned spans stay correct).
struct Ops {
  /// Masked-sweep row kernel: for each word t < n computes the
  /// kill/keep/undecided decision words from the partner-mask words
  /// (ax/ay/cx/cy) and the lane-periodic constants, applies the kill to
  /// row[t] in place, writes the undecided word to undecided[t], and
  /// accumulates per-lane masked/dead popcounts into `stats`.
  /// Requires n % lanes == 0; lanes is 1 or kMaxLanes.
  void (*sweep_row)(Word* row, const Word* ax, const Word* ay,
                    const Word* cx, const Word* cy, const SweepConsts& c,
                    std::size_t lanes, std::size_t n, Word* undecided,
                    SweepStats* stats);
  void (*andn)(Word* dst, const Word* src, std::size_t n);      // dst &= ~src
  void (*or_into)(Word* dst, const Word* src, std::size_t n);   // dst |= src
  void (*and_into)(Word* dst, const Word* src, std::size_t n);  // dst &= src
};

/// Dispatch table of the active tier (one relaxed atomic load plus an
/// array index; resolve once per sweep, not per row).
const Ops& ops();

/// Dispatch table of a specific tier, clamped to detected_tier() (the
/// cross-tier identity tests and the ISA ablation drive this).
const Ops& ops_for(IsaTier t);

}  // namespace parsec::cdg::simd
