// Engine-agnostic filtering kernels over arena spans.
//
// Every host backend — the sequential parser, the CRCW P-RAM step
// model and the topology models — performs the same bit-level
// operations: zero an eliminated role value's row and column, test
// support, evaluate a unary constraint over a domain, and sweep a
// binary constraint over the pairs.  They are defined once here,
// expressed over NetworkArena spans, so the pair layout is known only to
// cdg/arena, cdg/network and this layer.
//
// The network's arcs are one symmetric pair matrix M over the pair axis
// V (cdg/arena.h): built after unary propagation, with one row and one
// column per surviving value, role by role.  Every kernel below that
// touches a pair works on V indices and maps back to dense role values
// through NetworkArena::pair_axis only where a binding or a domain bit
// needs it.  Domains and the truth masks of the mask cache stay dense
// D-bit rows.  In this form a binary constraint is one mask pass over
// each row's words, and support is the Boolean product M·B with the
// |V|×R role-indicator matrix B (Lee's matrix view of parsing; the host
// counterpart of the MasPar's per-arc scanOr and per-role scanAnd,
// Figures 10/12).
//
// Semantics contracts (the equivalence and golden tests depend on them):
//   * a pair (u, v) of distinct roles is read once per sweep, from the
//     row of the earlier role; a kill clears both of its bits, and
//     counts once;
//   * counter hooks (`evals`) replicate the historical increments
//     exactly: one per unary test, two per binary pair tested (whether
//     or not the second assignment runs);
//   * the sweeps clear bits in place and return how many pairs.
//
// Counter-hook contract for the masked (vectorized) kernels:
//   * `evals` still counts ACTUAL constraint evaluations — one per
//     unary value tested, two per binary pair the residual decides — so
//     it is a faithful cost measure of the residual path;
//   * pairs/values the mask pass batch-decides without an evaluation are
//     counted separately (`masked_pairs` / `masked_decided`), each
//     representing the same work the plain kernel would have charged:
//     2 evals per masked binary pair, 1 per masked unary value;
//   * therefore  evals_plain ==  evals_masked + 2 * masked_pairs
//     (binary) and  evals_plain == evals_masked + masked_decided
//     (unary) for any identical network state — the *effective* counts
//     NetworkCounters::effective_{unary,binary}_evals() report, which
//     is what the paper-figure benches consume (tested in
//     tests/cdg/maskcache_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "cdg/arena.h"
#include "cdg/constraint_eval.h"
#include "cdg/role_value.h"
#include "util/bitmatrix.h"
#include "util/bitset.h"

namespace parsec::cdg::kernels {

/// Zeroes the rows and columns of pair-axis values `vids`: the matrix
/// never shrinks (paper §2.2.1, design decision 4).  M is symmetric, so
/// a value's column is cleared through the set bits of its row.
void zero_rows_cols(NetworkArena& a, std::span<const int> vids);

/// True iff row `v` of `role` meets every other role's block, i.e. every
/// incident arc still has a supporting 1-bit for it (paper §1.4).
bool supported(const NetworkArena& a, int role, std::size_t v);

/// Support of every pair-axis value, into `sup` (|V| bits): bit v is
/// set iff row v meets every block but its own, the rows of M·B ANDed
/// over roles.  M is symmetric, so the values that meet role r's block
/// are the OR of that block's rows: one OR-fold per role, |V| + R row
/// reads in all.  Dead values (zero rows) read 0 unless R = 1.
void support_all(const NetworkArena& a, util::BitSpan sup);

/// Re-reads role `role`'s term of support_all into `sup` (ANDs in the
/// values that still meet its block).  After eliminations in `role`
/// this is the only term that changes, so a cascading sweep stays exact
/// with one OR-fold per role that lost values.
void and_support_of(const NetworkArena& a, int role, util::BitSpan sup);

/// Evaluates a unary constraint's Bool expression `e` (its root, or the
/// factored `unary_rest`) over the set bits of `domain` (ascending),
/// appending failing dense rv indices to `victims`.  Bindings are
/// derived from (ix, rid, w).  If `evals` is non-null it is incremented
/// once per value tested.
void propagate_unary(const Expr& e, const Sentence& sent,
                     const RvIndexer& ix, RoleId rid, WordPos w,
                     util::ConstBitSpan domain, std::vector<int>& victims,
                     std::size_t* evals = nullptr);

/// Sweeps one binary constraint over every live pair of the pair matrix:
/// for each, evaluates both variable assignments of the two dense values
/// and clears the pair on failure.  `roles_per_word` maps roles to (role
/// id, word) bindings.  If `evals` is non-null it is incremented by 2
/// per pair tested (both assignments are charged even when the first
/// already fails).  Returns the number of pairs cleared.  This is the
/// one-evaluation-per-pair reference the masked sweep must match
/// (ParseOptions::use_masks).
int sweep_binary(NetworkArena& a, const Constraint& c, const Sentence& sent,
                 const RvIndexer& ix, int roles_per_word,
                 std::size_t* evals = nullptr);

// ---------------------------------------------------------------------
// Vectorized evaluation layer: per-(part, role) truth masks + word
// kernels (the host-side counterpart of the paper's per-PE constraint
// broadcast — one predicate applied to every role value at once).
// ---------------------------------------------------------------------

/// The four hoisted-part truth masks of one binary constraint for one
/// role, one bit per role value (dense rv index): "does this role's
/// value rv satisfy the x-side / y-side hoisted conjunction?".
struct FactoredMasks {
  util::ConstBitSpan ante_x, ante_y;
  util::ConstBitSpan cons_x, cons_y;
};

/// Per-sentence cache of hoisted-part truth masks, resident in the
/// arena's mask region (4 slots per binary constraint, see
/// NetworkArena::mask).  Each mask bit is a pure function of (sentence,
/// role, role value) — independent of the domain state — and is
/// materialized only for values alive at build time; since domains only
/// shrink and the sweep consults mask bits solely at alive positions,
/// eliminations never invalidate a mask.  Only re-binding the arena to
/// a new sentence does: staleness is generation-checked against
/// arena.reinits(), so Network::reinit invalidates every mask in O(1).
class MaskCache {
 public:
  static constexpr std::size_t kSlotsPerConstraint = NetworkArena::kMaskParts;

  /// Sizes the generation table for `num_binary` constraints (the
  /// arena's mask region must hold 4 * num_binary slots).
  void configure(std::size_t num_binary) {
    if (gen_.size() != num_binary) gen_.assign(num_binary, 0);
  }

  /// True when constraint k's masks are valid for the arena's current
  /// sentence binding.
  bool built(const NetworkArena& a, std::size_t k) const {
    return k < gen_.size() && gen_[k] == a.reinits() + 1;
  }

  /// Materializes (if stale) the four mask rows of binary constraint
  /// `k` for every role.  Each hoisted term is evaluated at the
  /// cheapest granularity its dependences allow — once per label
  /// (mod-independent terms fill whole label runs of the label-major rv
  /// axis), once per modifiee, once per alive value only when the term
  /// reads both halves, and shared across roles when it reads neither
  /// (role v) nor (pos v) — so a build typically costs O(|L| + n)
  /// evaluations per term, not O(R*D).  `roles_per_word` maps dense
  /// role indices to (role id, word).  Returns hoisted evaluations
  /// performed (0 on a cache hit); the caller charges them to its
  /// mask-build counter.
  std::size_t ensure(NetworkArena& a, const FactoredConstraint& c,
                     std::size_t k, const Sentence& sent, const RvIndexer& ix,
                     int roles_per_word);

  /// Copies constraint k's four masks (must be built) onto the pair
  /// axis, into the arena's pair mask rows, for the sweeps (arena must
  /// be compacted).
  void gather(NetworkArena& a, std::size_t k) const;

  /// Mask spans of constraint k for `role` (must be built).
  FactoredMasks masks(const NetworkArena& a, std::size_t k, int role) const {
    assert(built(a, k));
    const std::size_t base = k * kSlotsPerConstraint;
    return FactoredMasks{a.mask(base + 0, role), a.mask(base + 1, role),
                         a.mask(base + 2, role), a.mask(base + 3, role)};
  }

  /// Total mask (re)builds across the cache's lifetime.
  std::uint64_t builds() const { return builds_; }

 private:
  std::vector<std::uint64_t> gen_;  // arena.reinits()+1 when current
  std::uint64_t builds_ = 0;
};

/// Counter sink for the masked kernels (see the counter-hook contract
/// in the header comment).  Null members are simply not charged.
struct MaskedCounters {
  std::size_t* evals = nullptr;          // actual constraint evaluations
  std::size_t* masked = nullptr;         // pairs/values decided mask-only
  std::size_t* build_evals = nullptr;    // hoisted evals spent on masks
  // Sweep bookkeeping: pair-matrix rows put through the mask expression
  // (`tile_sweeps`) and their 64-bit words (`lane_words`).  Both are
  // pure functions of the network state, so the perf gate can pin them.
  std::size_t* tile_sweeps = nullptr;
  std::size_t* lane_words = nullptr;
};

/// Masked sweep of one binary constraint over the pair matrix: for each
/// row, the separable part of the constraint is applied as a fixed
/// 8-term AND/ANDN/OR expression per word over the gathered pair masks
/// (MaskCache::gather must have run for this constraint), across the
/// columns of every later role at once, deciding most pairs without an
/// evaluation; only pairs the masks leave undecided fall back to the
/// whole constraint (both variable assignments, exactly like
/// sweep_binary).  When `apply_residual` is false undecided pairs are
/// left untouched (the mask-only ablation mode; results then
/// UNDER-approximate the plain sweep).  Returns pairs cleared.
/// Bit-identical to sweep_binary by construction when `apply_residual`
/// is true.
int sweep_binary_masked(NetworkArena& a, const FactoredConstraint& c,
                        const Sentence& sent, const RvIndexer& ix,
                        int roles_per_word, const MaskedCounters& counters,
                        bool apply_residual = true);

/// Hoisted-guard unary propagation: evaluates the constraint's
/// role-value-independent guard once for the role; when it fails the
/// whole domain is vacuously satisfied (domain.count() charged to
/// `counters.masked`) and no per-value work runs.  Otherwise
/// `unary_rest` runs per alive value exactly like propagate_unary.
/// Victims are appended in ascending order.
void propagate_unary_masked(const FactoredConstraint& c, const Sentence& sent,
                            const RvIndexer& ix, RoleId rid, WordPos w,
                            util::ConstBitSpan domain,
                            std::vector<int>& victims,
                            const MaskedCounters& counters);

// ---------------------------------------------------------------------
// Packed l×l submatrix kernels (MasPar PE words, paper Fig. 13).
//
// Each MasPar PE holds an l×l label submatrix packed into one 64-bit
// word: bit (i*l + j) is row-label-slot i, column-label-slot j.  The
// row/column masking that the engine's SIMD phases perform is the
// packed counterpart of zero_rows_cols above.
// ---------------------------------------------------------------------

/// Mask of row `lab` in an l×l packed submatrix.
constexpr std::uint64_t packed_row_mask(int lab, int l) {
  return ((std::uint64_t{1} << l) - 1) << (lab * l);
}

/// Mask of column `lab` in an l×l packed submatrix.
constexpr std::uint64_t packed_col_mask(int lab, int l) {
  std::uint64_t m = 0;
  for (int i = 0; i < l; ++i) m |= std::uint64_t{1} << (i * l + lab);
  return m;
}

constexpr std::uint64_t zero_packed_row(std::uint64_t w, int lab, int l) {
  return w & ~packed_row_mask(lab, l);
}

constexpr std::uint64_t zero_packed_col(std::uint64_t w, int lab, int l) {
  return w & ~packed_col_mask(lab, l);
}

/// Bit (i, j) of an l×l packed submatrix.
constexpr bool packed_test(std::uint64_t w, int i, int j, int l) {
  return (w >> (i * l + j)) & 1u;
}

}  // namespace parsec::cdg::kernels
