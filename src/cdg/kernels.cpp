#include "cdg/kernels.h"

#include <bit>

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

/// Both variable assignments of the pair (x, y) under the whole
/// constraint; charges 2 to `evals` up front.
bool pair_holds(const Constraint& c, EvalContext& ctx, const Binding& x,
                const Binding& y, std::size_t& evals) {
  evals += 2;
  ctx.x = x;
  ctx.y = y;
  if (!eval_constraint(c, ctx)) return false;
  ctx.x = y;
  ctx.y = x;
  return eval_constraint(c, ctx);
}

/// Bits [lo, hi) that fall in word `w` of a row.
Word run_bits(std::size_t lo, std::size_t hi, std::size_t w) {
  const std::size_t base = w * kWordBits;
  if (hi <= base || lo >= base + kWordBits) return 0;
  const std::size_t from = lo > base ? lo - base : 0;
  const std::size_t to = hi - base < kWordBits ? hi - base : kWordBits;
  return (to == kWordBits ? ~Word{0} : (Word{1} << to) - 1) &
         ~((Word{1} << from) - 1);
}

void clear_bit(Word* row, std::size_t v) {
  row[v / kWordBits] &= ~(Word{1} << (v % kWordBits));
}

/// Binding of pair-axis value `v`.
Binding bind_value(const NetworkArena& a, const RvIndexer& ix,
                   int roles_per_word, std::size_t v) {
  const int role = a.role_of(v);
  return Binding{ix.decode(a.pair_axis()[v]), role_id(role, roles_per_word),
                 word_of(role, roles_per_word)};
}

/// Clears pair (v, u) from row v's word `w` bits `dead` and mirrors each
/// into column v of the partner rows.  Returns pairs cleared.
int kill_pairs(NetworkArena& a, std::size_t v, std::size_t w, Word dead) {
  a.pair_row(v)[w] &= ~dead;
  for (Word u = dead; u; u &= u - 1)
    clear_bit(a.pair_row(w * kWordBits +
                         static_cast<std::size_t>(std::countr_zero(u))),
              v);
  return std::popcount(dead);
}

}  // namespace

void zero_rows_cols(NetworkArena& a, std::span<const int> vids) {
  const std::size_t W = a.pair_row_words();
  for (int vid : vids) {
    const std::size_t v = static_cast<std::size_t>(vid);
    Word* row = a.pair_row(v);
    for (std::size_t w = 0; w < W; ++w) kill_pairs(a, v, w, row[w]);
  }
}

bool supported(const NetworkArena& a, int role, std::size_t v) {
  const Word* row = a.pair_row(v);
  const std::size_t W = a.pair_row_words();
  for (int other = 0; other < a.roles(); ++other) {
    if (other == role) continue;
    const std::size_t lo = a.block_begin(other), hi = a.block_end(other);
    bool meets = false;
    for (std::size_t w = lo / kWordBits; !meets && w < W && w * kWordBits < hi;
         ++w)
      meets = row[w] & run_bits(lo, hi, w);
    if (!meets) return false;
  }
  return true;
}

void and_support_of(const NetworkArena& a, int role, util::BitSpan sup) {
  const std::size_t lo = a.block_begin(role), hi = a.block_end(role);
  Word* out = sup.words();
  for (std::size_t w = 0; w < sup.word_count(); ++w) {
    // A role's own values need no support from it.
    Word meets = run_bits(lo, hi, w);
    for (std::size_t v = lo; v < hi; ++v) meets |= a.pair_row(v)[w];
    out[w] &= meets;
  }
}

void support_all(const NetworkArena& a, util::BitSpan sup) {
  sup.set_all();
  for (int role = 0; role < a.roles(); ++role) and_support_of(a, role, sup);
}

void propagate_unary(const Expr& e, const Sentence& sent,
                     const RvIndexer& ix, RoleId rid, WordPos w,
                     util::ConstBitSpan domain, std::vector<int>& victims,
                     std::size_t* evals) {
  EvalContext ctx;
  ctx.sentence = &sent;
  domain.for_each([&](std::size_t rv) {
    ctx.x = Binding{ix.decode(static_cast<int>(rv)), rid, w};
    if (evals) ++*evals;
    if (!holds(e, ctx)) victims.push_back(static_cast<int>(rv));
  });
}

int sweep_binary(NetworkArena& a, const Constraint& c, const Sentence& sent,
                 const RvIndexer& ix, int roles_per_word, std::size_t* evals) {
  const std::size_t V = a.pair_values();
  const std::size_t W = a.pair_row_words();
  EvalContext ctx;
  ctx.sentence = &sent;
  std::size_t tested = 0;
  int zeroed = 0;
  for (int ra = 0; ra < a.roles(); ++ra) {
    const std::size_t lo = a.block_begin(ra), hi = a.block_end(ra);
    for (std::size_t v = lo; v < hi; ++v) {
      const Binding bind_a = bind_value(a, ix, roles_per_word, v);
      // Later roles' columns only: each pair is read from one side.
      for (std::size_t w = hi / kWordBits; w < W; ++w) {
        const Word live = a.pair_row(v)[w] & run_bits(hi, V, w);
        Word dead = 0;
        for (Word u = live; u; u &= u - 1) {
          const std::size_t col =
              w * kWordBits + static_cast<std::size_t>(std::countr_zero(u));
          if (!pair_holds(c, ctx, bind_a,
                          bind_value(a, ix, roles_per_word, col), tested))
            dead |= u & -u;
        }
        if (dead) zeroed += kill_pairs(a, v, w, dead);
      }
    }
  }
  if (evals) *evals += tested;
  return zeroed;
}

namespace {

/// Clears bit range [lo, hi) of `s`, word-wise.
void clear_run(util::BitSpan s, std::size_t lo, std::size_t hi) {
  for (std::size_t wi = lo / kWordBits; wi * kWordBits < hi; ++wi)
    s.words()[wi] &= ~run_bits(lo, hi, wi);
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
        if (!eval_hoisted(t.expr, sent, b)) msk.reset(rv);
      });
    } else if (t.uses_lab) {
      for (LabelId l = 0; l < L; ++l) {
        b.rv = RoleValue{l, 0};
        ++evals;
        if (!eval_hoisted(t.expr, sent, b))
          clear_run(msk, static_cast<std::size_t>(l) * M,
                    static_cast<std::size_t>(l + 1) * M);
      }
    } else if (t.uses_mod) {
      for (WordPos m = 0; m < M; ++m) {
        b.rv = RoleValue{0, m};
        ++evals;
        if (!eval_hoisted(t.expr, sent, b))
          for (LabelId l = 0; l < L; ++l)
            msk.reset(static_cast<std::size_t>(l) * M + m);
      }
    } else {
      // Constant over the whole domain (site-only or literal).
      ++evals;
      b.rv = RoleValue{0, 0};
      if (!eval_hoisted(t.expr, sent, b)) msk.reset_all();
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
  const NetworkArena& ca = a;
  for (int p = 0; p < NetworkArena::kMaskParts; ++p) {
    util::BitSpan out = a.pair_mask(p);
    out.reset_all();
    for (int role = 0; role < a.roles(); ++role) {
      const util::ConstBitSpan dense =
          ca.mask(k * kSlotsPerConstraint + static_cast<std::size_t>(p), role);
      const std::size_t lo = a.block_begin(role);
      const std::span<const std::int32_t> axis = a.axis(role);
      for (std::size_t c = 0; c < axis.size(); ++c)
        if (dense.test(static_cast<std::size_t>(axis[c]))) out.set(lo + c);
    }
  }
}

int sweep_binary_masked(NetworkArena& a, const FactoredConstraint& c,
                        const Sentence& sent, const RvIndexer& ix,
                        int roles_per_word, const MaskedCounters& counters,
                        bool apply_residual) {
  const std::size_t V = a.pair_values();
  const std::size_t W = a.pair_row_words();
  // Partner-side mask words (bit u = does value u satisfy the part) and
  // the row side's mask bits, both on the pair axis.
  const NetworkArena& ca = a;
  const Word* AX = ca.pair_mask(0).words();
  const Word* AY = ca.pair_mask(1).words();
  const Word* CX = ca.pair_mask(2).words();
  const Word* CY = ca.pair_mask(3).words();
  const util::ConstBitSpan ma_ax = ca.pair_mask(0), ma_ay = ca.pair_mask(1);
  const util::ConstBitSpan ma_cx = ca.pair_mask(2), ma_cy = ca.pair_mask(3);
  EvalContext ctx;
  ctx.sentence = &sent;
  std::size_t evals = 0, masked = 0, rows = 0, words = 0;
  int zeroed = 0;
  const auto ones = [](bool b) { return b ? ~Word{0} : Word{0}; };

  for (int ra = 0; ra < a.roles(); ++ra) {
    const std::size_t lo = a.block_begin(ra), hi = a.block_end(ra);
    if (hi == V) break;  // no later role holds a value
    const std::size_t w0 = hi / kWordBits;
    for (std::size_t v = lo; v < hi; ++v) {
      Word* row = a.pair_row(v);
      // Fold the row value's hoisted-mask bits and the constraint's
      // residual flags into eight broadcast constants, leaving a fixed
      // 8-term expression per word — the same instruction stream for
      // every row, the ACU-broadcast shape.
      const bool ax = ma_ax.test(v), ay = ma_ay.test(v);
      const bool cx = ma_cx.test(v), cy = ma_cy.test(v);
      const Word nax = ones(!ax), ncx = ones(!cx);
      const Word nay = ones(!ay), ncy = ones(!cy);
      const Word t1c = ones(cx && !c.cons_residual);
      const Word t2c = ones(cy && !c.cons_residual);
      const Word f1c = ones(ax && !c.ante_residual);
      const Word f2c = ones(ay && !c.ante_residual);
      ++rows;
      words += W - w0;
      for (std::size_t w = w0; w < W; ++w) {
        // Columns of later roles only: each pair is read from one side.
        const Word r = row[w] & run_bits(hi, V, w);
        if (!r) continue;
        // Direction 1 (x = row value, y = partner value u): known
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
        masked +=
            static_cast<std::size_t>(std::popcount(r) - std::popcount(und));
        Word dead = r & kill;
        if (apply_residual && und) {
          // Residual: the whole constraint decides what the masks left
          // open.  A pair's verdict depends only on (sentence, v, u),
          // never on matrix state, so deciding it here or later is the
          // same.
          const Binding bind_a = bind_value(a, ix, roles_per_word, v);
          for (Word u = und; u; u &= u - 1) {
            const std::size_t col =
                w * kWordBits + static_cast<std::size_t>(std::countr_zero(u));
            if (!pair_holds(c.full, ctx, bind_a,
                            bind_value(a, ix, roles_per_word, col), evals))
              dead |= u & -u;
          }
        }
        if (dead) zeroed += kill_pairs(a, v, w, dead);
      }
    }
  }
  if (counters.evals) *counters.evals += evals;
  if (counters.masked) *counters.masked += masked;
  if (counters.tile_sweeps) *counters.tile_sweeps += rows;
  if (counters.lane_words) *counters.lane_words += words;
  return zeroed;
}

void propagate_unary_masked(const FactoredConstraint& c, const Sentence& sent,
                            const RvIndexer& ix, RoleId rid, WordPos w,
                            util::ConstBitSpan domain,
                            std::vector<int>& victims,
                            const MaskedCounters& counters) {
  if (!c.unary_guard.args.empty()) {
    // The guard is rv-free: when it fails, the whole domain is
    // vacuously satisfied and the per-value sweep is skipped.
    if (counters.build_evals) ++*counters.build_evals;
    const Binding b{RoleValue{}, rid, w};  // rv unused
    if (!eval_hoisted(c.unary_guard, sent, b)) {
      if (counters.masked) *counters.masked += domain.count();
      return;
    }
  }
  propagate_unary(c.unary_rest, sent, ix, rid, w, domain, victims,
                  counters.evals);
}

}  // namespace parsec::cdg::kernels
