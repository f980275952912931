// The constraint network (CN) of paper §1.2-1.4.
//
// One node per word; each node carries q roles (governor, needs, ...).
// Each role holds a *domain*: the set of role values (label-modifiee
// pairs) still considered possible.  Every pair of distinct roles in the
// network is connected by an *arc matrix* recording which role-value
// pairs may legally coexist.
//
// Sizes (paper §1.2): a sentence of n words has R = n*q roles, each with
// up to D = |L|*(n+1) role values; there are O(n^2) arcs each holding an
// O(n^2)-bit matrix, i.e. O(n^4) arc elements in total — the quantity
// the MasPar spreads across its PEs.
//
// Storage: every bit of network state (domains, the pair matrix, truth
// masks) lives in one NetworkArena (cdg/arena.h), mirroring the paper's
// flat PE-array layout (§2.2.1).  Accessors hand out spans/views into
// that arena, and the propagation operations route through the shared
// cdg/kernels.h layer used by every host engine.
//
// Arc layout: domains are dense D-bit rows, but the arcs are built on
// first use (the first binary constraint, consistency sweep or support
// query), normally after unary propagation, as ONE symmetric pair matrix
// over the *pair axis* V: every role's values alive at that moment, role
// by role.  Arc (a, b) is the block of rows of a's values and columns of
// b's, so a constraint sweep covers every arc of a row in one pass over
// its words and support is the product of the matrix with the role
// indicator matrix.  The dense-rv accessors (arc_allows, arc_forbid,
// eliminate, supported) translate through the axis, so callers never see
// V indices; pair_matrix() and compact_axis() expose the layout itself.
//
// MasPar fidelity: eliminated role values never shrink the matrix — their
// rows and columns are zeroed in place (design decision 4).  Building
// arcs before unary propagation (design decision 1) is modelled by the
// MasPar engine's own PE layout; here `Options::prebuild_arcs` merely
// builds the pair matrix over the full initial domains.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "cdg/arena.h"
#include "cdg/constraint_eval.h"
#include "cdg/grammar.h"
#include "cdg/kernels.h"
#include "cdg/lexicon.h"
#include "cdg/role_value.h"
#include "util/bitmatrix.h"
#include "util/bitset.h"

namespace parsec::cdg {

/// Work counters for the complexity experiments (bench_pram_complexity,
/// bench_serial_vs_parallel): the serial model's O(k n^4) shape is read
/// off these rather than noisy wall-clock alone.
struct NetworkCounters {
  std::size_t unary_evals = 0;      // actual constraint evaluations
  std::size_t binary_evals = 0;     // actual constraint evaluations
  std::size_t eliminations = 0;
  std::size_t arc_zeroings = 0;     // individual matrix bits cleared
  std::size_t support_checks = 0;
  // Vectorized-path bookkeeping (kernels.h counter-hook contract):
  // pairs/values the truth masks decided without an evaluation, and the
  // hoisted evaluations spent building masks / testing unary guards.
  std::size_t masked_binary_pairs = 0;
  std::size_t masked_unary_decided = 0;
  std::size_t mask_build_evals = 0;
  /// Sweep bookkeeping: row blocks the masked kernel read (one per
  /// pair-matrix row; one per row tile in the SoA batch) and 64-bit
  /// words put through its mask expression.  Both are functions of the
  /// network state and sweep schedule only, so the perf gate can pin
  /// them on any machine.
  std::size_t tile_sweeps = 0;
  std::size_t simd_lane_words = 0;

  /// Constraint tests performed, in plain-sweep units: what unary_evals
  /// would read had every value been dispatched individually.  Equal to
  /// the plain path's unary_evals for the same network state (the
  /// paper-figure benches consume these, so counts stay reproducible
  /// whichever evaluation path ran).
  std::size_t effective_unary_evals() const {
    return unary_evals + masked_unary_decided;
  }
  /// Same, binary: the plain sweep charges 2 evals per surviving pair.
  std::size_t effective_binary_evals() const {
    return binary_evals + 2 * masked_binary_pairs;
  }

  NetworkCounters& operator+=(const NetworkCounters& o) {
    unary_evals += o.unary_evals;
    binary_evals += o.binary_evals;
    eliminations += o.eliminations;
    arc_zeroings += o.arc_zeroings;
    support_checks += o.support_checks;
    masked_binary_pairs += o.masked_binary_pairs;
    masked_unary_decided += o.masked_unary_decided;
    mask_build_evals += o.mask_build_evals;
    tile_sweeps += o.tile_sweeps;
    simd_lane_words += o.simd_lane_words;
    return *this;
  }
};

struct NetworkOptions {
  /// Build the pair matrix at construction and every reinit, over the
  /// full initial domains, instead of on first use after unary
  /// propagation.  Results are identical; bench_ablation_build_order
  /// measures the work difference.
  bool prebuild_arcs = false;
};

/// One elimination, attributed to the phase that caused it.  Consumed
/// by diagnostics (cdg/diagnose.h) and by anyone debugging a grammar.
struct TraceEvent {
  enum class Kind {
    UnaryElimination,    // a unary constraint removed the role value
    SupportElimination,  // consistency maintenance removed it
  };
  Kind kind;
  std::string cause;   // constraint name, or "consistency"
  int role;            // dense role index
  RoleValue rv;
};

class Network {
 public:
  using Options = NetworkOptions;
  using TraceFn = std::function<void(const TraceEvent&)>;

  Network(const Grammar& g, const Sentence& s, Options opt = {});

  /// Rebinds this network to a new sentence of the *same length* under
  /// the *same grammar*, reusing the whole arena in place (no
  /// allocation; the serve hot path relies on this).  Counters and the
  /// trace hook are reset and the arcs dropped (rebuilt on first use,
  /// or right away under prebuild_arcs).  Returns false (and leaves the
  /// network untouched) when the sentence length differs.
  bool reinit(const Sentence& s);

  // ---- shape ----------------------------------------------------------
  int n() const { return sentence_.size(); }
  int roles_per_word() const { return grammar_->num_roles(); }
  /// Total role count R = n * q.
  int num_roles() const { return n() * roles_per_word(); }
  /// Shared domain-axis length D = |L| * (n+1).
  int domain_size() const { return indexer_.domain_size(); }

  const Grammar& grammar() const { return *grammar_; }
  const Sentence& sentence() const { return sentence_; }
  const RvIndexer& indexer() const { return indexer_; }

  /// The single allocation backing all network state.
  NetworkArena& arena() { return arena_; }
  const NetworkArena& arena() const { return arena_; }

  /// Dense index of (word position, role id); words are 1-based.
  int role_index(WordPos w, RoleId r) const {
    return (w - 1) * roles_per_word() + r;
  }
  WordPos word_of_role(int role) const { return role / roles_per_word() + 1; }
  RoleId role_id_of(int role) const { return role % roles_per_word(); }

  // ---- domains ---------------------------------------------------------
  util::ConstBitSpan domain(int role) const { return arena_.domain(role); }
  bool alive(int role, int rv) const {
    return arena_.domain(role).test(static_cast<std::size_t>(rv));
  }
  /// Alive role values of a role, in dense-index order.
  std::vector<RoleValue> alive_values(int role) const;

  // ---- arcs --------------------------------------------------------------
  bool arcs_built() const { return arcs_built_; }
  /// Builds the pair matrix over the currently alive values: bit (u, v)
  /// is 1 iff the two values belong to distinct roles.  Idempotent until
  /// the next reinit.
  void build_arcs();

  /// `role`'s block of the pair axis (arcs built): the dense rv of each
  /// row or column the role has in the pair matrix, ascending.
  std::span<const std::int32_t> compact_axis(int role) const {
    return arena_.axis(role);
  }

  /// The symmetric pair matrix (arcs built): rows and columns index the
  /// pair axis, role blocks in role order (NetworkArena::block_begin).
  util::ConstBitMatrixView pair_matrix() const { return arena_.pairs(); }

  /// Whether role values (ra, rv_a) and (rb, rv_b) of distinct roles may
  /// coexist, on the dense rv axis: before the arcs exist, iff both are
  /// alive; after, the pair's bit (false for a value that was dead when
  /// they were built).
  bool arc_allows(int ra, int rv_a, int rb, int rv_b) const;
  /// Clears one pair (building the arcs first if needed); arc_zeroings
  /// is charged only when the pair was still set.
  void arc_forbid(int ra, int rv_a, int rb, int rv_b);

  // ---- alive cache -------------------------------------------------------
  /// Rebuilds the per-role alive-value lists from the current domains
  /// into persistent scratch (no steady-state allocation).  The spans
  /// below stay valid until the next refresh; eliminations do not
  /// invalidate the memory, only the contents.
  void refresh_alive_cache();
  std::span<const int> alive_list(int role) const {
    return {alive_flat_.data() + alive_off_[role],
            alive_off_[role + 1] - alive_off_[role]};
  }
  /// Total alive values across all roles, per the last refresh.
  std::size_t alive_cache_total() const { return alive_flat_.size(); }

  // ---- parsing operations ------------------------------------------------
  /// Propagates one unary constraint over every role value (paper §1.4);
  /// returns the number of role values eliminated.
  int apply_unary(const Constraint& c);

  /// Propagates one binary constraint over every pair of role values in
  /// distinct roles, in both variable assignments; returns pairs zeroed.
  /// Builds the arcs first if they do not exist yet.
  int apply_binary(const Constraint& c);

  // ---- vectorized (masked) parsing operations ---------------------------
  /// Hoisted-guard unary propagation: identical eliminations to
  /// apply_unary(c.full), but roles whose guard fails skip the per-value
  /// sweep entirely (charged to counters().masked_unary_decided).
  /// Charges every unary counter.
  int apply_unary(const FactoredConstraint& c);

  /// The same propagation, charging the masked-kernel counters only
  /// through `sink` (eliminations are always charged): the unary twin
  /// of sweep_binary for the step models.  Returns the number of role
  /// values eliminated.
  int sweep_unary(const FactoredConstraint& c,
                  const kernels::MaskedCounters& sink);

  /// Masked binary sweep: identical pairs zeroed to
  /// apply_binary(c.full), with most pairs decided by bitwise row
  /// kernels over the constraint's truth masks (stored in arena mask
  /// slot group `slot`, one group per binary constraint) and only
  /// mask-undecided pairs evaluated against the whole constraint.  With
  /// `apply_residual` false, undecided pairs are left untouched instead
  /// (bench_ablation_masks' mask-only mode; the result then
  /// under-approximates the plain sweep).  Charges every sweep counter.
  int apply_binary(const FactoredConstraint& c, std::size_t slot,
                   bool apply_residual = true);

  /// The same sweep, charging the masked-kernel counters only through
  /// `sink` (arc_zeroings is always charged): the parallel engines and
  /// step models keep evaluation counts with their own cost models.
  int sweep_binary(const FactoredConstraint& c, std::size_t slot,
                   const kernels::MaskedCounters& sink,
                   bool apply_residual = true);

  /// Builds (if stale) constraint `c`'s truth masks in slot group `slot`;
  /// hoisted evaluations are charged to counters().mask_build_evals.
  void ensure_masks(const FactoredConstraint& c, std::size_t slot);

  /// Mask spans of slot group `slot` for `role` (ensure_masks first).
  kernels::FactoredMasks masks(std::size_t slot, int role) const {
    return mask_cache_.masks(arena_, slot, role);
  }

  /// The mask cache itself (staleness inspection in tests).
  const kernels::MaskCache& mask_cache() const { return mask_cache_; }

  /// Removes a role value: clears its domain bit and zeroes its row and
  /// column of the pair matrix.
  void eliminate(int role, int rv);

  /// Removes several role values of ONE role: identical bookkeeping and
  /// end state to calling eliminate(role, rv) for each element in
  /// order (kernels::zero_rows_cols).  Returns the number of values
  /// actually eliminated.
  int eliminate_batch(int role, std::span<const int> rvs);

  /// True unless some arc no longer supports (role, rv): its row of the
  /// pair matrix misses some other role's block (paper §1.4).  Builds
  /// the arcs first if they do not exist yet.
  bool supported(int role, int rv);

  /// One consistency-maintenance sweep over all role values, role by
  /// role; returns the number eliminated.  Eliminations cascade within
  /// the sweep: a role's support reflects every elimination made for
  /// earlier roles.  support_checks is charged one per alive value.
  int consistency_step();

  /// One synchronous consistency sweep (the P-RAM and MasPar schedule,
  /// §2.1 and Figures 10/12): every value's support is read from the
  /// state before the sweep, then all victims go.  `support_checks`,
  /// when non-null, is charged one per alive value.  Returns the number
  /// eliminated.
  int synchronous_sweep(std::size_t* support_checks);

  /// Filtering (paper §1.4): repeats consistency_step until quiescent or
  /// `max_iters` sweeps have run (<0 = unbounded, the sequential model;
  /// the MasPar bounds it, design decision 5).  Returns sweeps that
  /// eliminated at least one value.
  int filter(int max_iters = -1);

  /// Necessary acceptance condition: every role still has a candidate.
  bool all_roles_nonempty() const;

  /// Structural self-check for tests: every alive value lies on its
  /// role's block of the pair axis, and the pair matrix is symmetric,
  /// has no same-role bit, holds bits only at alive×alive positions
  /// (an eliminated value's row and column are zero) and none past a
  /// row's last column.  Returns true when all invariants hold.
  bool check_invariants() const;

  // ---- stats ------------------------------------------------------------
  std::size_t total_alive() const;
  /// Allowed pairs of values in distinct roles; before the arcs exist,
  /// the alive×alive pairs they would start with.
  std::size_t arc_ones() const;
  NetworkCounters& counters() { return counters_; }
  const NetworkCounters& counters() const { return counters_; }

  /// Binding (rv, role-id, word-pos) for constraint evaluation.
  Binding binding(int role, int rv) const {
    return Binding{indexer_.decode(rv), role_id_of(role), word_of_role(role)};
  }

  /// Installs an elimination observer (empty function to clear).  The
  /// callback fires once per role value removed, attributed to the
  /// unary constraint or consistency sweep that killed it.
  void set_trace(TraceFn fn) { trace_ = std::move(fn); }

 private:
  void init_domains();
  /// Attributes the next eliminations to the unary constraint `name`.
  void begin_unary(const std::string& name);
  /// Alive values of `role` whose bit in `sup` (over the pair axis) is
  /// clear, ascending, into victims_.
  void collect_unsupported(int role, util::ConstBitSpan sup);

  const Grammar* grammar_;
  Sentence sentence_;
  RvIndexer indexer_;
  Options opt_;
  NetworkArena arena_;  // domains + pair matrix + masks
  kernels::MaskCache mask_cache_;
  bool arcs_built_ = false;
  // Binary-constraint slot whose masks sit on the pair axis.
  static constexpr std::size_t kNoSlot = ~std::size_t{0};
  std::size_t gathered_slot_ = kNoSlot;
  NetworkCounters counters_;
  TraceFn trace_;
  // Attribution context for trace events during apply_unary /
  // consistency_step.
  TraceEvent::Kind current_kind_ = TraceEvent::Kind::SupportElimination;
  std::string current_cause_ = "consistency";
  // Quiescence memo: the (eliminations + arc_zeroings) total observed at
  // the start of the last consistency sweep that eliminated nothing.
  // While that total is unchanged the network cannot have lost support,
  // so a repeat sweep is provably a no-op and is skipped (the common
  // case: the fixpoint-confirming final filter sweep, and sweeps after
  // binary constraints that zeroed nothing).  Any mutation path —
  // eliminate, arc_forbid, the binary sweeps — bumps those counters and
  // re-arms the sweep.
  static constexpr std::uint64_t kNoCleanSweep = ~std::uint64_t{0};
  std::uint64_t clean_sweep_at_ = kNoCleanSweep;
  // Persistent scratch (capacity retained across reinit; the serve hot
  // path must not allocate per request).
  std::vector<int> victims_;             // per-role elimination staging
  std::vector<int> vids_;                // victims' pair-axis indices
  std::vector<int> alive_flat_;          // alive rvs, role-major
  std::vector<std::size_t> alive_off_;   // [R + 1] offsets into alive_flat_
};

}  // namespace parsec::cdg
