// Arena storage for a constraint network (the PE-array layout, hosted).
//
// The paper lays the whole CN out across the MasPar's PE array: every
// arc submatrix at a fixed offset computable from ids alone (§2.2.1,
// design decision 2).  NetworkArena is the host-side mirror of that
// discipline: ONE contiguous allocation holds, in structure-of-arrays
// form,
//
//   [ domains | compact arcs | compact axes | rv flags | masks
//     | support scratch | compact masks | compact scratch ]
//
//   * domains        — R rows of S words (S = ceil(D / 64)): the dense
//                      role-value bitsets every engine, the hash, the
//                      result cache and the wire read;
//   * compact arcs   — R*(R-1)/2 upper-triangle matrices over the
//                      *compact axes*: arc (a, b) is |Aa| rows of
//                      ceil(|Ab| / 64) words, packed back to back;
//   * compact axes   — per role, the dense rv of each compact id: the
//                      values alive when the arcs were built, ascending;
//   * rv flags       — R*D bytes of victim marks for the parallel
//                      engines' unary staging (each user zeroes first);
//   * masks          — `mask_slots` rows of R×S words: per-(constraint
//                      part, role) truth bitmasks on the dense axis
//                      (kernels::MaskCache); 4 slots per binary
//                      constraint;
//   * support scratch— R dense rows: per-role support bitmasks
//                      (kernels::support_mask);
//   * compact masks  — 4 rows per role: the four truth masks of the
//                      binary constraint being swept, gathered onto the
//                      role's compact axis (MaskCache::gather);
//   * compact scratch— one row per role on its compact axis (support and
//                      victim bitmasks; disjoint per role, so parallel
//                      engines share it).
//
// Host engines build the arcs after unary propagation (compact()), when
// only a few percent of each domain survives, so an arc is a small
// dense block over the surviving values instead of a |D|×|D| matrix
// that ends up almost all zero.  The MasPar engine keeps the paper's
// pre-unary layout in its own PE memory (design decision 1).
//
// Region sizes are pure functions of the shape: R, D, the mask slots and
// each role's axis capacity (the most values the role can ever hold,
// computed from the grammar and n), so a same-shape reinit() is O(1) and
// never allocates.  Within the compact-arc region, offsets are laid out
// by compact() from the actual axis lengths; they stay fixed until the
// next reinit, and an eliminated value's row and column are zeroed in
// place (design decision 4), never removed.  The serve layer pools whole
// arenas via Network::reinit, making steady-state parsing
// allocation-free per request.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/bitmatrix.h"
#include "util/bitset.h"

namespace parsec::cdg {

class NetworkArena {
 public:
  using Word = util::DynBitset::Word;
  static constexpr std::size_t kWordBits = util::DynBitset::kWordBits;
  /// Domain, mask and support-scratch rows start on cache-line
  /// boundaries: the buffer base is padded to 64 bytes and those rows
  /// use a stride rounded up to 8 words.
  static constexpr std::size_t kRowAlignBytes = 64;
  static constexpr std::size_t kAlignWords = kRowAlignBytes / sizeof(Word);
  /// Compact mask rows per role (the four hoisted parts of one binary
  /// constraint: ante_x, ante_y, cons_x, cons_y).
  static constexpr int kMaskParts = 4;

  NetworkArena() = default;
  NetworkArena(int roles, int domain_size, std::size_t mask_slots = 0,
               std::span<const int> axis_capacity = {}) {
    reshape(roles, domain_size, mask_slots, axis_capacity);
  }

  /// (Re)computes the layout for shape (R, D) with `mask_slots` rows of
  /// per-role constraint masks and, per role, room for
  /// `axis_capacity[role]` compact values (empty: D for every role).
  /// Reuses the existing allocation when it is big enough; otherwise
  /// reallocates once.
  void reshape(int roles, int domain_size, std::size_t mask_slots = 0,
               std::span<const int> axis_capacity = {});

  bool same_shape(int roles, int domain_size) const {
    return roles == R_ && domain_size == D_;
  }

  /// Same-shape reuse: O(1) bookkeeping, no allocation, contents left
  /// for the caller to rewrite (Network::reinit refills domains).  The
  /// compact axes are dropped; compact() builds them again.
  void reinit() {
    assert(R_ > 0);
    compacted_ = false;
    ++reinits_;
  }

  // ---- shape ----------------------------------------------------------
  int roles() const { return R_; }
  int domain_size() const { return D_; }
  /// Words per dense domain row (natural stride, ceil(D / 64)).
  std::size_t row_words() const { return stride_; }
  /// Words per domain / mask / support-scratch row (padded to a
  /// multiple of kAlignWords; the pad words stay zero).
  std::size_t aligned_row_words() const { return dstride_; }
  std::size_t num_arcs() const {
    const std::size_t R = static_cast<std::size_t>(R_);
    return R * (R - 1) / 2;
  }

  /// Row-major upper-triangle index of the arc between ra < rb.
  std::size_t arc_index(int ra, int rb) const {
    assert(0 <= ra && ra < rb && rb < R_);
    const std::size_t R = static_cast<std::size_t>(R_);
    const std::size_t a = static_cast<std::size_t>(ra);
    const std::size_t b = static_cast<std::size_t>(rb);
    return a * R - a * (a + 1) / 2 + (b - a - 1);
  }

  /// Inverse of arc_index (shape metadata, precomputed once).
  std::pair<int, int> arc_pair(std::size_t idx) const {
    return arc_pairs_[idx];
  }

  // ---- domains --------------------------------------------------------
  util::BitSpan domain(int role) {
    return util::BitSpan(base() + domain_off(role),
                         static_cast<std::size_t>(D_));
  }
  util::ConstBitSpan domain(int role) const {
    return util::ConstBitSpan(base() + domain_off(role),
                              static_cast<std::size_t>(D_));
  }

  // ---- compact axes and arcs ------------------------------------------
  /// Snapshots every role's alive values as its compact axis and lays
  /// out the compact arc matrices, each filled with ones (bit (i, j) set
  /// iff both values are alive, which all axis values are right now).
  void compact();
  /// True between compact() and the next reinit()/reshape().
  bool compacted() const { return compacted_; }

  /// Most values `role`'s compact axis can hold.
  int axis_capacity(int role) const { return cap_[role]; }
  /// Dense rv of each compact id of `role`, ascending (compacted only).
  std::span<const std::int32_t> axis(int role) const {
    assert(compacted_);
    return {axis_base() + axis_off_[role],
            static_cast<std::size_t>(axis_len_[role])};
  }
  /// Compact id of dense value `rv` of `role`, or -1 when `rv` is not on
  /// the axis (it was dead when the arcs were built).
  int compact_id(int role, int rv) const;

  /// Compact arc matrix `idx`: rows index ra's axis, columns rb's axis.
  util::BitMatrixView arc(std::size_t idx) {
    const auto [ra, rb] = arc_pairs_[idx];
    return util::BitMatrixView(base() + arcs_off_ + arc_off_[idx],
                               axis_size(ra), axis_size(rb),
                               axis_words(rb));
  }
  util::ConstBitMatrixView arc(std::size_t idx) const {
    const auto [ra, rb] = arc_pairs_[idx];
    return util::ConstBitMatrixView(base() + arcs_off_ + arc_off_[idx],
                                    axis_size(ra), axis_size(rb),
                                    axis_words(rb));
  }
  util::BitMatrixView arc(int ra, int rb) { return arc(arc_index(ra, rb)); }
  util::ConstBitMatrixView arc(int ra, int rb) const {
    return arc(arc_index(ra, rb));
  }

  /// Set bits of compact arc `idx`.  compact() initializes it; every
  /// kernel that clears arc bits subtracts what it cleared, so a sweep
  /// can account for an arc it does not need to read.
  std::uint32_t& arc_live(std::size_t idx) { return arc_live_[idx]; }
  std::uint32_t arc_live(std::size_t idx) const { return arc_live_[idx]; }

  /// Hoisted-part mask `part` (0..3: ante_x, ante_y, cons_x, cons_y) of
  /// the constraint last gathered, on `role`'s compact axis.
  util::BitSpan compact_mask(int part, int role) {
    return util::BitSpan(base() + cmask_off(part, role), axis_size(role));
  }
  util::ConstBitSpan compact_mask(int part, int role) const {
    return util::ConstBitSpan(base() + cmask_off(part, role),
                              axis_size(role));
  }

  /// Which antecedent masks of the constraint last gathered have any
  /// bit set on `role`'s compact axis: kAnteX | kAnteY.
  static constexpr std::uint8_t kAnteX = 1, kAnteY = 2;
  std::uint8_t& mask_any(int role) { return mask_any_[role]; }
  std::uint8_t mask_any(int role) const { return mask_any_[role]; }

  /// Per-role scratch row on the compact axis.  Roles write disjoint
  /// rows, so parallel engines can fill them concurrently.
  util::BitSpan compact_scratch(int role) {
    return util::BitSpan(base() + cscratch_off_ + cwords_off_[role],
                         axis_size(role));
  }

  // ---- elimination staging -------------------------------------------
  /// One byte per (role, rv): parallel engines' victim marks.  Zero
  /// before use.
  std::span<std::uint8_t> rv_flags() {
    return {reinterpret_cast<std::uint8_t*>(base() + flags_off_),
            static_cast<std::size_t>(R_) * D_};
  }

  // ---- constraint masks ----------------------------------------------
  /// Rows of per-role truth bitmasks for the vectorized evaluation
  /// layer: mask(slot, role) holds one bit per role value.  Contents
  /// are managed by kernels::MaskCache (generation-checked against
  /// reinits(); reinit invalidates without touching the words).
  std::size_t mask_slots() const { return mask_slots_; }
  util::BitSpan mask(std::size_t slot, int role) {
    return util::BitSpan(base() + mask_off(slot, role),
                         static_cast<std::size_t>(D_));
  }
  util::ConstBitSpan mask(std::size_t slot, int role) const {
    return util::ConstBitSpan(base() + mask_off(slot, role),
                              static_cast<std::size_t>(D_));
  }

  // ---- support scratch ------------------------------------------------
  /// Per-role dense support bitmask (kernels::support_mask).  Roles
  /// write disjoint rows, so parallel engines can fill them
  /// concurrently.
  util::BitSpan support_scratch(int role) {
    return util::BitSpan(
        base() + support_off_ + static_cast<std::size_t>(role) * dstride_,
        static_cast<std::size_t>(D_));
  }
  util::ConstBitSpan support_scratch(int role) const {
    return util::ConstBitSpan(
        base() + support_off_ + static_cast<std::size_t>(role) * dstride_,
        static_cast<std::size_t>(D_));
  }

  // ---- accounting -----------------------------------------------------
  /// Bytes of the single backing allocation.
  std::size_t bytes() const { return buf_.capacity() * sizeof(Word); }
  /// Times the backing buffer actually (re)allocated.
  std::uint64_t allocations() const { return allocations_; }
  /// Times a same-shape reinit reused the allocation.
  std::uint64_t reinits() const { return reinits_; }

  std::size_t domains_bytes() const {
    return static_cast<std::size_t>(R_) * dstride_ * sizeof(Word);
  }
  /// Capacity of the compact-arc region.
  std::size_t arcs_bytes() const { return arcs_words_ * sizeof(Word); }
  std::size_t masks_bytes() const {
    return mask_slots_ * static_cast<std::size_t>(R_) * dstride_ * sizeof(Word);
  }

 private:
  Word* base() { return buf_.data() + base_pad_; }
  const Word* base() const { return buf_.data() + base_pad_; }
  const std::int32_t* axis_base() const {
    return reinterpret_cast<const std::int32_t*>(base() + axis_region_off_);
  }
  std::int32_t* axis_base() {
    return reinterpret_cast<std::int32_t*>(base() + axis_region_off_);
  }
  std::size_t axis_size(int role) const {
    assert(compacted_);
    return static_cast<std::size_t>(axis_len_[role]);
  }
  std::size_t axis_words(int role) const {
    return (axis_size(role) + kWordBits - 1) / kWordBits;
  }
  std::size_t domain_off(int role) const {
    return domains_off_ + static_cast<std::size_t>(role) * dstride_;
  }
  std::size_t mask_off(std::size_t slot, int role) const {
    assert(slot < mask_slots_ && 0 <= role && role < R_);
    return masks_off_ +
           (slot * static_cast<std::size_t>(R_) +
            static_cast<std::size_t>(role)) *
               dstride_;
  }
  std::size_t cmask_off(int part, int role) const {
    assert(0 <= part && part < kMaskParts && 0 <= role && role < R_);
    return cmasks_off_ + kMaskParts * cwords_off_[role] +
           static_cast<std::size_t>(part) *
               (cwords_off_[role + 1] - cwords_off_[role]);
  }

  int R_ = 0;
  int D_ = 0;
  std::size_t stride_ = 0;   // words per dense domain row
  std::size_t dstride_ = 0;  // words per domain/mask/scratch row (padded)
  std::size_t base_pad_ = 0;  // words from buf_.data() to the aligned base
  std::size_t mask_slots_ = 0;
  std::size_t arcs_words_ = 0;  // compact-arc region capacity
  // Region offsets, in words from base() (the 64-byte-aligned start).
  std::size_t domains_off_ = 0;
  std::size_t arcs_off_ = 0;
  std::size_t axis_region_off_ = 0;
  std::size_t flags_off_ = 0;
  std::size_t masks_off_ = 0;
  std::size_t support_off_ = 0;
  std::size_t cmasks_off_ = 0;
  std::size_t cscratch_off_ = 0;
  std::vector<Word> buf_;
  // Shape metadata, sized by reshape() and only rewritten afterwards.
  std::vector<std::pair<int, int>> arc_pairs_;
  std::vector<int> cap_;                  // [R] axis capacity
  std::vector<std::size_t> axis_off_;     // [R + 1] prefix of cap_
  std::vector<std::size_t> cwords_off_;   // [R + 1] prefix of cap_ words
  std::vector<int> axis_len_;             // [R] axis length (compact())
  std::vector<std::size_t> arc_off_;      // [arcs] word offset (compact())
  std::vector<std::uint32_t> arc_live_;   // [arcs] set bits
  std::vector<std::uint8_t> mask_any_;    // [R] kAnteX | kAnteY
  bool compacted_ = false;
  std::uint64_t allocations_ = 0;
  std::uint64_t reinits_ = 0;
};

}  // namespace parsec::cdg
