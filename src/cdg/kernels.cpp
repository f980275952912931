#include "cdg/kernels.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace parsec::cdg::kernels {

namespace {

using Word = NetworkArena::Word;
constexpr std::size_t kWordBits = NetworkArena::kWordBits;

/// (role id, word) binding coordinates of dense role index `role`.
RoleId role_id(int role, int roles_per_word) {
  return static_cast<RoleId>(role % roles_per_word);
}
WordPos word_of(int role, int roles_per_word) {
  return static_cast<WordPos>(role / roles_per_word + 1);
}

/// Both variable assignments of the pair (x, y) under the full program;
/// charges 2 to `vm` up front.
bool pair_holds(const CompiledConstraint& c, EvalContext& ctx,
                const Binding& x, const Binding& y, std::size_t& vm) {
  vm += 2;
  ctx.x = x;
  ctx.y = y;
  if (!eval_compiled(c, ctx)) return false;
  ctx.x = y;
  ctx.y = x;
  return eval_compiled(c, ctx);
}

}  // namespace

void zero_rows_cols(NetworkArena& a, int role, std::span<const int> cids) {
  const int R = a.roles();
  util::BitSpan victims = a.compact_scratch(role);
  victims.reset_all();
  for (int c : cids) victims.set(static_cast<std::size_t>(c));
  const Word* vm = victims.words();
  for (int other = 0; other < R; ++other) {
    if (other == role) continue;
    const std::size_t t =
        role < other ? a.arc_index(role, other) : a.arc_index(other, role);
    if (a.arc_live(t) == 0) continue;
    util::BitMatrixView m = a.arc(t);
    const std::size_t W = m.row_word_count();
    std::size_t cleared = 0;
    if (role < other) {
      for (int c : cids) {
        cleared += m.row_count(static_cast<std::size_t>(c));
        m.zero_row(static_cast<std::size_t>(c));
      }
    } else {
      // One ANDN pass per partner row clears every victim column at
      // once (dead partner rows are already zero; clearing them again
      // is harmless and cheaper than testing).
      for (std::size_t r = 0; r < m.rows(); ++r) {
        Word* row = m.row_words(r);
        for (std::size_t w = 0; w < W; ++w) {
          cleared += static_cast<std::size_t>(std::popcount(row[w] & vm[w]));
          row[w] &= ~vm[w];
        }
      }
    }
    a.arc_live(t) -= static_cast<std::uint32_t>(cleared);
  }
}

bool supported(const NetworkArena& a, int role, int cid) {
  const int R = a.roles();
  for (int other = 0; other < R; ++other) {
    if (other == role) continue;
    const bool ok =
        role < other
            ? a.arc(role, other).row_any(static_cast<std::size_t>(cid))
            : a.arc(other, role).col_any(static_cast<std::size_t>(cid));
    if (!ok) return false;
  }
  return true;
}

void propagate_unary(const CompiledConstraint& c, const Sentence& sent,
                     const RvIndexer& ix, RoleId rid, WordPos w,
                     util::ConstBitSpan domain, std::vector<int>& victims,
                     std::size_t* evals) {
  EvalContext ctx;
  ctx.sentence = &sent;
  domain.for_each([&](std::size_t rv) {
    ctx.x = Binding{ix.decode(static_cast<int>(rv)), rid, w};
    if (evals) ++*evals;
    if (!eval_compiled(c, ctx)) victims.push_back(static_cast<int>(rv));
  });
}

void propagate_unary(const CompiledConstraint& c, const Sentence& sent,
                     const RvIndexer& ix, RoleId rid, WordPos w,
                     util::ConstBitSpan domain, std::span<std::uint8_t> flags,
                     std::size_t* evals) {
  EvalContext ctx;
  ctx.sentence = &sent;
  domain.for_each([&](std::size_t rv) {
    ctx.x = Binding{ix.decode(static_cast<int>(rv)), rid, w};
    if (evals) ++*evals;
    if (!eval_compiled(c, ctx)) flags[rv] = 1;
  });
}

int sweep_binary(NetworkArena& a, std::size_t arc, const CompiledConstraint& c,
                 const Sentence& sent, const RvIndexer& ix, int roles_per_word,
                 std::size_t* evals) {
  const auto [ra, rb] = a.arc_pair(arc);
  util::BitMatrixView m = a.arc(arc);
  const std::span<const std::int32_t> axis_a = a.axis(ra);
  const std::span<const std::int32_t> axis_b = a.axis(rb);
  const RoleId rid_a = role_id(ra, roles_per_word);
  const RoleId rid_b = role_id(rb, roles_per_word);
  const WordPos wa = word_of(ra, roles_per_word);
  const WordPos wb = word_of(rb, roles_per_word);
  const std::size_t W = m.row_word_count();
  EvalContext ctx;
  ctx.sentence = &sent;
  std::size_t vm = 0;
  int zeroed = 0;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    Word* row = m.row_words(i);
    const Binding bind_a{ix.decode(axis_a[i]), rid_a, wa};
    for (std::size_t w = 0; w < W; ++w) {
      for (Word u = row[w]; u; u &= u - 1) {
        const std::size_t bit = static_cast<std::size_t>(std::countr_zero(u));
        const Binding bind_b{ix.decode(axis_b[w * kWordBits + bit]), rid_b,
                             wb};
        if (!pair_holds(c, ctx, bind_a, bind_b, vm)) {
          row[w] &= ~(Word{1} << bit);
          ++zeroed;
        }
      }
    }
  }
  a.arc_live(arc) -= static_cast<std::uint32_t>(zeroed);
  if (evals) *evals += vm;
  return zeroed;
}

namespace {

/// Clears bit range [lo, hi) of `s`, word-wise.
void clear_run(util::BitSpan s, std::size_t lo, std::size_t hi) {
  constexpr std::size_t B = kWordBits;
  Word* w = s.words();
  for (std::size_t wi = lo / B; wi * B < hi; ++wi) {
    const std::size_t base = wi * B;
    const std::size_t from = lo > base ? lo - base : 0;
    const std::size_t to = hi - base < B ? hi - base : B;
    const Word m = (to == B ? ~Word{0} : (Word{1} << to) - 1) &
                   ~((Word{1} << from) - 1);
    w[wi] &= ~m;
  }
}

}  // namespace

std::size_t MaskCache::ensure(NetworkArena& a, const FactoredConstraint& c,
                              std::size_t k, const Sentence& sent,
                              const RvIndexer& ix, int roles_per_word) {
  assert(k < gen_.size());
  if (built(a, k)) return 0;
  const int R = a.roles();
  const int L = ix.num_labels();
  const int M = ix.n() + 1;  // modifiee slots per label run
  const std::vector<HoistedTerm>* term_sets[kSlotsPerConstraint] = {
      &c.ante_x_terms, &c.ante_y_terms, &c.cons_x_terms, &c.cons_y_terms};
  std::size_t evals = 0;

  // ANDs one term's truth pattern into `msk` at the cheapest
  // granularity its dependences allow.  The dense rv axis is
  // label-major (rv = label*M + mod), so a mod-independent term holds
  // one value per whole M-bit label run, and a label-independent term
  // holds one value per mod offset across every run.
  const auto apply_term = [&](const HoistedTerm& t, util::BitSpan msk,
                              RoleId rid, WordPos pos,
                              util::ConstBitSpan dom) {
    Binding b;
    b.role = rid;
    b.pos = pos;
    if (t.uses_lab && t.uses_mod) {
      // Genuinely per-value: evaluate over values alive at build time.
      // Dead positions keep stale bits, but the sweep reads mask bits
      // only at alive rows and set arc bits (alive×alive), and domains
      // only ever shrink after the build.
      dom.for_each([&](std::size_t rv) {
        b.rv = ix.decode(static_cast<int>(rv));
        ++evals;
        if (!eval_hoisted(t.prog, sent, b)) msk.reset(rv);
      });
    } else if (t.uses_lab) {
      for (LabelId l = 0; l < L; ++l) {
        b.rv = RoleValue{l, 0};
        ++evals;
        if (!eval_hoisted(t.prog, sent, b))
          clear_run(msk, static_cast<std::size_t>(l) * M,
                    static_cast<std::size_t>(l + 1) * M);
      }
    } else if (t.uses_mod) {
      for (WordPos m = 0; m < M; ++m) {
        b.rv = RoleValue{0, m};
        ++evals;
        if (!eval_hoisted(t.prog, sent, b))
          for (LabelId l = 0; l < L; ++l)
            msk.reset(static_cast<std::size_t>(l) * M + m);
      }
    } else {
      // Constant over the whole domain (site-only or literal).
      ++evals;
      b.rv = RoleValue{0, 0};
      if (!eval_hoisted(t.prog, sent, b)) msk.reset_all();
    }
  };

  for (std::size_t p = 0; p < kSlotsPerConstraint; ++p) {
    const std::size_t slot = k * kSlotsPerConstraint + p;
    const std::vector<HoistedTerm>& terms = *term_sets[p];
    // Site-independent terms have one truth pattern shared by every
    // role: build it once on role 0's span, then word-copy.  Per-value
    // terms are excluded (they are evaluated over each role's own
    // alive set), as are site-dependent ones.
    util::BitSpan m0 = a.mask(slot, 0);
    m0.set_all();
    bool per_role = false;
    for (const HoistedTerm& t : terms) {
      if (t.uses_site || (t.uses_lab && t.uses_mod))
        per_role = true;
      else
        apply_term(t, m0, 0, 1, a.domain(0));  // site unread by the term
    }
    for (int role = 1; role < R; ++role) a.mask(slot, role).copy_from(m0);
    if (!per_role) continue;
    for (int role = 0; role < R; ++role) {
      const RoleId rid = static_cast<RoleId>(role % roles_per_word);
      const WordPos pos = static_cast<WordPos>(role / roles_per_word + 1);
      for (const HoistedTerm& t : terms)
        if (t.uses_site || (t.uses_lab && t.uses_mod))
          apply_term(t, a.mask(slot, role), rid, pos, a.domain(role));
    }
  }
  gen_[k] = a.reinits() + 1;
  ++builds_;
  return evals;
}

void MaskCache::gather(NetworkArena& a, std::size_t k) const {
  assert(built(a, k));
  const int R = a.roles();
  for (int role = 0; role < R; ++role) {
    const std::span<const std::int32_t> axis = a.axis(role);
    for (int p = 0; p < NetworkArena::kMaskParts; ++p) {
      const util::ConstBitSpan dense =
          static_cast<const NetworkArena&>(a).mask(
              k * kSlotsPerConstraint + static_cast<std::size_t>(p), role);
      util::BitSpan out = a.compact_mask(p, role);
      out.reset_all();
      for (std::size_t c = 0; c < axis.size(); ++c)
        if (dense.test(static_cast<std::size_t>(axis[c]))) out.set(c);
    }
    const NetworkArena& ca = a;
    a.mask_any(role) =
        (ca.compact_mask(0, role).any() ? NetworkArena::kAnteX : 0) |
        (ca.compact_mask(1, role).any() ? NetworkArena::kAnteY : 0);
  }
}

int sweep_binary_masked(NetworkArena& a, std::size_t arc,
                        const FactoredConstraint& c, const Sentence& sent,
                        const RvIndexer& ix, int roles_per_word,
                        const MaskedCounters& counters, bool apply_residual) {
  const std::uint32_t live = a.arc_live(arc);
  if (live == 0) return 0;  // no pair left (or an empty side)
  const auto [ra, rb] = a.arc_pair(arc);
  // Direction 1 can only be falsified or left undecided for a pair
  // whose row value passes ante_x and whose partner passes ante_y;
  // direction 2 mirrors.  When neither combination occurs on this arc,
  // the masks alone decide every pair "keep" — without reading it.
  const std::uint8_t fa = a.mask_any(ra), fb = a.mask_any(rb);
  const bool dir1 = (fa & NetworkArena::kAnteX) && (fb & NetworkArena::kAnteY);
  const bool dir2 = (fa & NetworkArena::kAnteY) && (fb & NetworkArena::kAnteX);
  if (!dir1 && !dir2) {
    if (counters.masked) *counters.masked += live;
    return 0;
  }
  util::BitMatrixView m = a.arc(arc);
  const std::size_t W = m.row_word_count();
  // Partner-side mask words (bit j = does b's value j satisfy the part)
  // and the row side's mask bits, both on the compact axes.
  const NetworkArena& ca = a;
  const Word* AX = ca.compact_mask(0, rb).words();
  const Word* AY = ca.compact_mask(1, rb).words();
  const Word* CX = ca.compact_mask(2, rb).words();
  const Word* CY = ca.compact_mask(3, rb).words();
  const util::ConstBitSpan ma_ax = ca.compact_mask(0, ra);
  const util::ConstBitSpan ma_ay = ca.compact_mask(1, ra);
  const util::ConstBitSpan ma_cx = ca.compact_mask(2, ra);
  const util::ConstBitSpan ma_cy = ca.compact_mask(3, ra);
  const std::span<const std::int32_t> axis_a = a.axis(ra);
  const std::span<const std::int32_t> axis_b = a.axis(rb);
  const RoleId rid_a = role_id(ra, roles_per_word);
  const RoleId rid_b = role_id(rb, roles_per_word);
  const WordPos wa = word_of(ra, roles_per_word);
  const WordPos wb = word_of(rb, roles_per_word);
  EvalContext ctx;
  ctx.sentence = &sent;
  std::size_t vm = 0, masked = 0;
  int zeroed = 0;
  const auto ones = [](bool b) { return b ? ~Word{0} : Word{0}; };

  for (std::size_t i = 0; i < m.rows(); ++i) {
    Word* row = m.row_words(i);
    // Fold the row value's hoisted-mask bits and the constraint's
    // residual flags into eight broadcast constants, leaving a fixed
    // 8-term expression per word — the same instruction stream for
    // every row, the ACU-broadcast shape.
    const bool ax = ma_ax.test(i), ay = ma_ay.test(i);
    const bool cx = ma_cx.test(i), cy = ma_cy.test(i);
    const Word nax = ones(!ax), ncx = ones(!cx);
    const Word nay = ones(!ay), ncy = ones(!cy);
    const Word t1c = ones(cx && !c.cons_residual);
    const Word t2c = ones(cy && !c.cons_residual);
    const Word f1c = ones(ax && !c.ante_residual);
    const Word f2c = ones(ay && !c.ante_residual);
    for (std::size_t w = 0; w < W; ++w) {
      const Word r = row[w];
      if (!r) continue;
      // Direction 1 (x = row value, y = partner value j): known
      // satisfied iff the antecedent is falsified by a hoisted part, or
      // the consequent is proven by both hoisted parts with no
      // residual; known violated iff the antecedent is proven and a
      // consequent part fails.  Direction 2 mirrors with the sides
      // swapped.
      const Word t1 = ~AY[w] | nax | (CY[w] & t1c);
      const Word f1 = f1c & AY[w] & (~CY[w] | ncx);
      const Word t2 = ~AX[w] | nay | (CX[w] & t2c);
      const Word f2 = f2c & AX[w] & (~CX[w] | ncy);
      const Word kill = f1 | f2;
      const Word und = r & ~kill & ~(t1 & t2);
      row[w] = r & ~kill;
      masked += static_cast<std::size_t>(std::popcount(r) - std::popcount(und));
      zeroed += std::popcount(r & kill);
      if (!apply_residual || !und) continue;
      // Residual: the bytecode VM decides what the masks left open.  A
      // pair's verdict depends only on (sentence, i, j), never on
      // matrix state, so deciding it here or later is the same.
      const Binding bind_a{ix.decode(axis_a[i]), rid_a, wa};
      for (Word u = und; u; u &= u - 1) {
        const std::size_t bit = static_cast<std::size_t>(std::countr_zero(u));
        const Binding bind_b{ix.decode(axis_b[w * kWordBits + bit]), rid_b,
                             wb};
        if (!pair_holds(c.full, ctx, bind_a, bind_b, vm)) {
          row[w] &= ~(Word{1} << bit);
          ++zeroed;
        }
      }
    }
  }
  a.arc_live(arc) -= static_cast<std::uint32_t>(zeroed);
  if (counters.vm_evals) *counters.vm_evals += vm;
  if (counters.masked) *counters.masked += masked;
  if (counters.tile_sweeps) ++*counters.tile_sweeps;
  if (counters.lane_words) *counters.lane_words += m.rows() * W;
  return zeroed;
}

namespace {

/// Shared guard step of the masked unary kernels: true when the
/// role-value-independent guard fails, i.e. the whole domain is
/// vacuously satisfied and the per-value sweep can be skipped.
bool unary_guard_fails(const FactoredConstraint& c, const Sentence& sent,
                       RoleId rid, WordPos w, util::ConstBitSpan domain,
                       const MaskedCounters& counters) {
  if (c.unary_guard.code.empty()) return false;
  if (counters.build_evals) ++*counters.build_evals;
  const Binding b{RoleValue{}, rid, w};  // rv unused: guard is rv-free
  if (eval_hoisted(c.unary_guard, sent, b)) return false;
  if (counters.masked) *counters.masked += domain.count();
  return true;
}

}  // namespace

void propagate_unary_masked(const FactoredConstraint& c, const Sentence& sent,
                            const RvIndexer& ix, RoleId rid, WordPos w,
                            util::ConstBitSpan domain,
                            std::vector<int>& victims,
                            const MaskedCounters& counters) {
  if (unary_guard_fails(c, sent, rid, w, domain, counters)) return;
  propagate_unary(c.unary_rest, sent, ix, rid, w, domain, victims,
                  counters.vm_evals);
}

void propagate_unary_masked(const FactoredConstraint& c, const Sentence& sent,
                            const RvIndexer& ix, RoleId rid, WordPos w,
                            util::ConstBitSpan domain,
                            std::span<std::uint8_t> flags,
                            const MaskedCounters& counters) {
  if (unary_guard_fails(c, sent, rid, w, domain, counters)) return;
  propagate_unary(c.unary_rest, sent, ix, rid, w, domain, flags,
                  counters.vm_evals);
}

void support_mask(NetworkArena& a, int role, util::BitSpan out) {
  assert(out.size() == static_cast<std::size_t>(a.domain_size()));
  const NetworkArena& ca = a;
  const std::span<const std::int32_t> axis = a.axis(role);
  const util::ConstBitSpan dom = ca.domain(role);
  // Work on the compact axis.  Dead values are unsupported by
  // definition (their rows/columns are zeroed), so start from the
  // values still alive and only ever clear bits.
  util::BitSpan sup = a.compact_scratch(role);
  sup.reset_all();
  for (std::size_t c = 0; c < axis.size(); ++c)
    if (dom.test(static_cast<std::size_t>(axis[c]))) sup.set(c);
  Word* sw = sup.words();
  const std::size_t W = sup.word_count();
  const int R = a.roles();
  for (int other = 0; other < R && sup.any(); ++other) {
    if (other == role) continue;
    if (role < other) {
      // Row side: one row-any bit per value still in the running.
      const util::ConstBitMatrixView m = ca.arc(role, other);
      sup.for_each([&](std::size_t c) {
        if (!m.row_any(c)) sup.reset(c);
      });
    } else {
      // Column side: OR-fold the partner's rows word by word (dead rows
      // are all-zero and contribute nothing).  Blocked so the
      // accumulator stays on the stack for any axis length.
      const util::ConstBitMatrixView m = ca.arc(other, role);
      constexpr std::size_t kBlock = 64;
      Word acc[kBlock];
      for (std::size_t w0 = 0; w0 < W; w0 += kBlock) {
        const std::size_t nb = std::min(kBlock, W - w0);
        for (std::size_t b = 0; b < nb; ++b) acc[b] = 0;
        for (std::size_t r = 0; r < m.rows(); ++r) {
          const Word* row = m.row_words(r) + w0;
          for (std::size_t b = 0; b < nb; ++b) acc[b] |= row[b];
        }
        for (std::size_t b = 0; b < nb; ++b) sw[w0 + b] &= acc[b];
      }
    }
  }
  out.reset_all();
  sup.for_each(
      [&](std::size_t c) { out.set(static_cast<std::size_t>(axis[c])); });
}

}  // namespace parsec::cdg::kernels
