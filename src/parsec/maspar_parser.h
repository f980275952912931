// PARSEC on the (simulated) MasPar MP-1 (paper §2.2).
//
// The six design decisions of §2.2.1 are all implemented:
//   1. arc matrices are constructed *before* unary propagation, so
//      unary constraints need not run first (Fig. 9);
//   2. no shared memory: every PE computes what it needs from its PE id
//      plus ACU broadcasts (the sentence's categories);
//   3. global ANDs/ORs use the router's scanAnd()/scanOr() primitives
//      (logarithmic, not constant, time);
//   4. eliminated role values never shrink a matrix: their rows/columns
//      are zeroed in every matrix on arcs emanating from the role;
//   5. only a constant number of consistency-maintenance iterations run
//      during filtering (configurable; fixpoint mode for tests);
//   6. PEs are virtualized: each physical PE emulates a constant number
//      of virtual PEs, and each PE processes an l x l label submatrix
//      (Fig. 13), so scans repeat l times.
//
// The kernel follows Figs. 10-12: for each label slot, PEs OR their
// submatrix row locally, a segmented scanOr per arc segment (a,mx,b)
// forms the arc OR, a segmented scanAnd over the role slot (a,mx) forms
// the support bit, and a router gather from the transposed partner PE
// delivers the column-side support for zeroing.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cdg/constraint_eval.h"
#include "cdg/grammar.h"
#include "cdg/lexicon.h"
#include "cdg/network.h"
#include "cdg/parser.h"
#include "maspar/cost_model.h"
#include "maspar/layout.h"
#include "maspar/machine.h"

namespace parsec::engine {

struct MasparOptions {
  int physical_pes = maspar::kMp1MaxPes;
  /// Constant bound on consistency iterations (design decision 5);
  /// <0 runs filtering to fixpoint (used by the equivalence tests).
  int filter_iterations = 10;
};

struct MasparResult {
  bool accepted = false;
  bool cancelled = false;  // CancelFn fired at an engine checkpoint
  int consistency_iterations = 0;
  int vpes = 0;
  int virt_factor = 1;
  maspar::MachineStats stats;
  double simulated_seconds = 0.0;  // under CostModel::mp1()
  /// Host-side SIMD-layer accounting for the packed l*l sweeps (the
  /// per-PE submatrix word IS the tile here): folded into
  /// NetworkCounters::tile_sweeps / simd_lane_words by run_backend so
  /// the maspar backend rows stay comparable to the host engines'.
  std::uint64_t tile_sweeps = 0;
  std::uint64_t lane_words = 0;
};

/// One parse instance: machine + PE-resident arc state for a sentence.
/// Construct, run kernels (or just parse()), then read the results.
class MasparParse {
 public:
  MasparParse(const cdg::Grammar& g, const cdg::Sentence& s,
              MasparOptions opt = {});

  // ---- kernels (each models one ACU-driven SIMD phase) ----------------
  /// Applies one unary constraint to every role value (rows and columns
  /// zeroed in place; design decision 1 lets this run any time).  The
  /// role-value-independent guard is evaluated once per role slot (host
  /// side — the ACU would broadcast it), and guarded slots run only
  /// `unary_rest`.  Every PE is charged the lockstep test of its 2*l
  /// row and column values either way.
  void apply_unary(const cdg::FactoredConstraint& c);
  /// Applies one binary constraint to every arc element, both variable
  /// assignments.  Hoisted-part truth masks are evaluated once per
  /// (role, mod-slot, label-slot) and expanded into packed l*l row and
  /// column masks; each PE then decides most elements with a handful of
  /// word ops and evaluates only mask-undecided elements against the
  /// whole constraint.  Every PE is charged 2*l*l evaluations either
  /// way.
  void apply_binary(const cdg::FactoredConstraint& c);
  /// One consistency-maintenance iteration (Figs. 10/12).  Returns true
  /// if any role value's support changed to dead (read by the ACU via a
  /// global scanOr).
  bool consistency_iteration();
  /// Runs the full pipeline: all unary, all binary, then filtering.
  /// `cancel` (if non-empty) is polled at every engine checkpoint —
  /// before each constraint broadcast and each consistency iteration —
  /// mirroring the ACU's per-phase control flow.
  MasparResult run(const std::vector<cdg::FactoredConstraint>& unary,
                   const std::vector<cdg::FactoredConstraint>& binary,
                   const cdg::CancelFn& cancel = {});

  // ---- read-back (host-side measurement; not costed) ------------------
  /// Domains in cdg::Network indexing: alive iff the role value is
  /// supported on every arc (AND of row ORs).
  std::vector<util::DynBitset> domains() const;
  /// Logical arc-matrix entry between two role values.
  bool arc_entry(int role_a, cdg::RoleValue a, int role_b,
                 cdg::RoleValue b) const;
  bool accepted() const;

  const maspar::Layout& layout() const { return layout_; }
  const maspar::Machine& machine() const { return machine_; }
  maspar::Machine& machine() { return machine_; }

  /// Support bit of (role, rv) computed host-side from current bits.
  bool supported(int role, cdg::RoleValue rv) const;

 private:
  const cdg::Grammar* grammar_;
  cdg::Sentence sentence_;
  maspar::Layout layout_;
  maspar::Machine machine_;
  MasparOptions opt_;
  int l_;  // label slots per PE submatrix

  // Per-PE state (the PE-local memory).
  std::vector<std::uint64_t> bits_;     // l x l submatrix per PE
  std::vector<int> seg_arc_;            // (a, mx, b) segment ids
  std::vector<int> seg_slot_;           // (a, mx) segment ids
  std::vector<int> partner_;            // transposed-copy PE id
  std::vector<std::uint8_t> active_;    // 0 for diagonal (a == b) PEs
  // Host-side caches of the values each PE derives from its id (pure
  // simulation speed; the derivation itself is costed once in the
  // constructor).
  std::vector<maspar::Layout::Coord> coords_;
  // Bindings of the row role values of slot (role a, mod slot mx),
  // indexed [a * M + mx][label slot].
  std::vector<std::vector<cdg::Binding>> slot_bindings_;
  // Packed-sweep accounting (see MasparResult::tile_sweeps).
  std::uint64_t tile_sweeps_ = 0;
  std::uint64_t lane_words_ = 0;
};

/// Grammar-level wrapper mirroring the other engines.
class MasparParser {
 public:
  explicit MasparParser(const cdg::Grammar& g, MasparOptions opt = {});

  /// Parses and returns timing/step statistics; `out` (if non-null)
  /// receives the parse instance for read-back.
  MasparResult parse(const cdg::Sentence& s) const;
  MasparResult parse(const cdg::Sentence& s,
                     std::unique_ptr<MasparParse>& out,
                     const cdg::CancelFn& cancel = {}) const;

  // Factored (hoisted) forms; each element's `.full` member is a copy
  // of the grammar's constraint.
  const std::vector<cdg::FactoredConstraint>& compiled_unary() const {
    return unary_;
  }
  const std::vector<cdg::FactoredConstraint>& compiled_binary() const {
    return binary_;
  }

 private:
  const cdg::Grammar* grammar_;
  MasparOptions opt_;
  std::vector<cdg::FactoredConstraint> unary_;
  std::vector<cdg::FactoredConstraint> binary_;
};

}  // namespace parsec::engine
