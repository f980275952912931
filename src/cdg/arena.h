// Arena storage for a constraint network (the PE-array layout, hosted).
//
// The paper lays the whole CN out across the MasPar's PE array: every
// arc submatrix at a fixed offset computable from ids alone (§2.2.1,
// design decision 2).  NetworkArena is the host-side mirror of that
// discipline.  Two allocations hold every bit of network state, in
// structure-of-arrays form:
//
//   shape region, sized from (R, D, mask slots) at reshape():
//   [ domains | masks ]
//
//   * domains  — R rows of S words (S = ceil(D / 64)): the dense
//                role-value bitsets every engine, the hash, the result
//                cache and the wire read;
//   * masks    — `mask_slots` rows of R×S words: per-(constraint part,
//                role) truth bitmasks on the dense axis
//                (kernels::MaskCache); 4 slots per binary constraint.
//
//   pair region, sized from the survivors at compact():
//   [ pair matrix | pair masks | pair scratch | pair axis ]
//
//   * pair axis    — the pair axis V: every role's values alive at
//                    compact(), role by role, ascending within a role.
//                    Role r owns the block [block_begin(r),
//                    block_end(r)) of V; entry v holds the dense rv;
//   * pair matrix  — one symmetric |V|×|V| bit matrix: bit (u, v) is
//                    set iff the two values may still coexist.  It
//                    holds every arc of the network at once, as the
//                    off-diagonal blocks; the diagonal (same-role)
//                    blocks stay zero;
//   * pair masks   — 4 rows of |V| bits: the truth masks of the binary
//                    constraint being swept, gathered onto V
//                    (MaskCache::gather);
//   * pair scratch — one row of |V| bits (the support vector of a
//                    consistency sweep).
//
// Host engines build the pair region after unary propagation (compact()),
// when only a few percent of each domain survives, so the matrix is a
// small dense block over the surviving values instead of R(R-1)/2
// |D|×|D| arcs that end up almost all zero.  The MasPar engine keeps the
// paper's pre-unary layout in its own PE memory (design decision 1).
//
// The shape region depends on the shape only, so a same-shape reinit()
// is O(1) and never allocates.  The pair region's capacity is
// min(worst case, max(1 MB, 2 × this sentence's need)), where the worst
// case holds every value each role's axis capacity allows (computed from
// the grammar and n).  It grows only in compact() and never shrinks, so
// every n whose worst case fits in 1 MB (n <= 26 for the English
// grammar) sizes it once, and larger n pay for what survives instead of
// for n^4.  Between compact() and the next reinit the block offsets stay
// fixed, and an eliminated value's row and column are zeroed in place
// (design decision 4), never removed.  The serve layer pools whole
// arenas via Network::reinit, making steady-state parsing
// allocation-free per request.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/bitmatrix.h"
#include "util/bitset.h"

namespace parsec::cdg {

class NetworkArena {
 public:
  using Word = util::DynBitset::Word;
  static constexpr std::size_t kWordBits = util::DynBitset::kWordBits;
  /// Domain rows start on cache-line boundaries: the shape region's
  /// base is padded to 64 bytes and domain rows use a stride rounded up
  /// to 8 words.  Mask rows keep the natural stride: they are one to
  /// five words up to n = 24, so padding would double the mask region.
  static constexpr std::size_t kRowAlignBytes = 64;
  static constexpr std::size_t kAlignWords = kRowAlignBytes / sizeof(Word);
  /// Pair mask rows (the four hoisted parts of one binary constraint:
  /// ante_x, ante_y, cons_x, cons_y).
  static constexpr int kMaskParts = 4;
  /// Smallest pair-region capacity compact() allocates, unless the
  /// worst case is smaller.
  static constexpr std::size_t kMinPairBytes = std::size_t{1} << 20;

  NetworkArena() = default;
  NetworkArena(int roles, int domain_size, std::size_t mask_slots = 0,
               std::span<const int> axis_capacity = {}) {
    reshape(roles, domain_size, mask_slots, axis_capacity);
  }

  /// (Re)computes the layout for shape (R, D) with `mask_slots` rows of
  /// per-role constraint masks and, per role, room for
  /// `axis_capacity[role]` values on the pair axis (empty: D for every
  /// role).  Reuses the shape region when it is big enough; otherwise
  /// reallocates it once.
  void reshape(int roles, int domain_size, std::size_t mask_slots = 0,
               std::span<const int> axis_capacity = {});

  bool same_shape(int roles, int domain_size) const {
    return roles == R_ && domain_size == D_;
  }

  /// Same-shape reuse: O(1) bookkeeping, no allocation, contents left
  /// for the caller to rewrite (Network::reinit refills domains).  The
  /// pair axis is dropped; compact() builds it again.
  void reinit() {
    assert(R_ > 0);
    compacted_ = false;
    ++reinits_;
  }

  // ---- shape ----------------------------------------------------------
  int roles() const { return R_; }
  int domain_size() const { return D_; }
  /// Words per dense domain or mask row (natural stride, ceil(D / 64)).
  std::size_t row_words() const { return stride_; }
  /// Words per domain row (padded to a multiple of kAlignWords; the pad
  /// words stay zero).
  std::size_t aligned_row_words() const { return dstride_; }

  // ---- domains --------------------------------------------------------
  util::BitSpan domain(int role) {
    return util::BitSpan(base() + domain_off(role),
                         static_cast<std::size_t>(D_));
  }
  util::ConstBitSpan domain(int role) const {
    return util::ConstBitSpan(base() + domain_off(role),
                              static_cast<std::size_t>(D_));
  }

  // ---- pair axis and matrix -------------------------------------------
  /// Lays out the pair axis from every role's alive values and fills
  /// the pair matrix with ones between distinct roles (all axis values
  /// are alive right now).  Grows the pair region when this sentence
  /// needs more than it holds (the `arena.alloc` fault site).
  void compact();
  /// True between compact() and the next reinit()/reshape().
  bool compacted() const { return compacted_; }

  /// Most values `role` can ever hold on the pair axis.
  int axis_capacity(int role) const { return cap_[role]; }
  /// |V|: values on the pair axis (compacted only).
  std::size_t pair_values() const { return V_; }
  /// Words per pair-matrix row, ceil(|V| / 64).
  std::size_t pair_row_words() const { return VW_; }
  /// `role`'s block [block_begin, block_end) of the pair axis.
  std::size_t block_begin(int role) const { return voff_[role]; }
  std::size_t block_end(int role) const { return voff_[role + 1]; }
  /// Role owning pair-axis value `v`.
  int role_of(std::size_t v) const;

  /// Dense rv of every pair-axis value (compacted only).
  std::span<const std::int32_t> pair_axis() const {
    assert(compacted_);
    return {axis_base(), V_};
  }
  /// Dense rv of each value of `role`'s block, ascending.
  std::span<const std::int32_t> axis(int role) const {
    return pair_axis().subspan(block_begin(role),
                               block_end(role) - block_begin(role));
  }
  /// Pair-axis index of dense value `rv` of `role`, or -1 when `rv` is
  /// not on the axis (it was dead when compact() ran).
  int pair_index(int role, int rv) const;

  /// The |V|×|V| pair matrix.
  util::BitMatrixView pairs() {
    assert(compacted_);
    return util::BitMatrixView(pairs_.data(), V_, V_, VW_);
  }
  util::ConstBitMatrixView pairs() const {
    assert(compacted_);
    return util::ConstBitMatrixView(pairs_.data(), V_, V_, VW_);
  }
  Word* pair_row(std::size_t v) { return pairs_.data() + v * VW_; }
  const Word* pair_row(std::size_t v) const {
    return pairs_.data() + v * VW_;
  }

  /// Hoisted-part mask `part` (0..3: ante_x, ante_y, cons_x, cons_y) of
  /// the constraint last gathered, on the pair axis.
  util::BitSpan pair_mask(int part) {
    return util::BitSpan(pairs_.data() + pmask_off(part), V_);
  }
  util::ConstBitSpan pair_mask(int part) const {
    return util::ConstBitSpan(pairs_.data() + pmask_off(part), V_);
  }

  /// One row of |V| bits of scratch.
  util::BitSpan pair_scratch() {
    return util::BitSpan(pairs_.data() + pmask_off(kMaskParts), V_);
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

  // ---- accounting -----------------------------------------------------
  /// Bytes of both backing allocations.
  std::size_t bytes() const {
    return (buf_.capacity() + pairs_.capacity()) * sizeof(Word);
  }
  /// Times either backing buffer actually (re)allocated.
  std::uint64_t allocations() const { return allocations_; }
  /// Times a same-shape reinit reused the allocation.
  std::uint64_t reinits() const { return reinits_; }

  std::size_t domains_bytes() const {
    return static_cast<std::size_t>(R_) * dstride_ * sizeof(Word);
  }
  /// Capacity of the pair region.
  std::size_t pairs_bytes() const { return pairs_.capacity() * sizeof(Word); }
  std::size_t masks_bytes() const {
    return mask_slots_ * static_cast<std::size_t>(R_) * stride_ * sizeof(Word);
  }

 private:
  Word* base() { return buf_.data() + base_pad_; }
  const Word* base() const { return buf_.data() + base_pad_; }
  const std::int32_t* axis_base() const {
    return reinterpret_cast<const std::int32_t*>(pairs_.data() +
                                                 pmask_off(kMaskParts + 1));
  }
  std::int32_t* axis_base() {
    return reinterpret_cast<std::int32_t*>(pairs_.data() +
                                           pmask_off(kMaskParts + 1));
  }
  std::size_t domain_off(int role) const {
    return static_cast<std::size_t>(role) * dstride_;
  }
  std::size_t mask_off(std::size_t slot, int role) const {
    assert(slot < mask_slots_ && 0 <= role && role < R_);
    return masks_off_ +
           (slot * static_cast<std::size_t>(R_) +
            static_cast<std::size_t>(role)) *
               stride_;
  }
  /// Word offset of pair-region row `k` after the matrix: the four
  /// masks, then the scratch row, then the axis.
  std::size_t pmask_off(int k) const {
    return V_ * VW_ + static_cast<std::size_t>(k) * VW_;
  }

  int R_ = 0;
  int D_ = 0;
  std::size_t stride_ = 0;   // words per dense domain row
  std::size_t dstride_ = 0;  // words per domain row (padded)
  std::size_t base_pad_ = 0;  // words from buf_.data() to the aligned base
  std::size_t mask_slots_ = 0;
  // Shape-region offset of the masks, in words from base() (the
  // 64-byte-aligned start); the domains start at 0.
  std::size_t masks_off_ = 0;
  std::vector<Word> buf_;    // shape region
  std::vector<Word> pairs_;  // pair region
  // Shape metadata, sized by reshape() and only rewritten afterwards.
  std::vector<int> cap_;            // [R] axis capacity
  std::size_t vmax_ = 0;            // sum of cap_
  std::vector<std::size_t> voff_;   // [R + 1] block offsets (compact())
  std::size_t V_ = 0;               // pair-axis length (compact())
  std::size_t VW_ = 0;              // words per pair-matrix row
  bool compacted_ = false;
  std::uint64_t allocations_ = 0;
  std::uint64_t reinits_ = 0;
};

}  // namespace parsec::cdg
